// Package auth implements the answering service: user registration,
// authentication, and login.
//
// The paper's removal idea: entering a protected subsystem and creating a
// logged-in process are mechanically the same act, so "the large collection
// of privileged, protected code used to authenticate and log in users would
// become non-privileged code". The same Service runs behind the kernel's
// as_$login gate before S4 and, from S4, in the unprivileged answering
// subsystem, where the kernel retains only a create-process gate.
package auth

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/acl"
	"repro/internal/mls"
)

// Errors returned by the answering service.
var (
	ErrUnknownUser     = errors.New("auth: unknown user")
	ErrBadPassword     = errors.New("auth: incorrect password")
	ErrWrongProject    = errors.New("auth: user not registered on project")
	ErrClearance       = errors.New("auth: requested label exceeds clearance")
	ErrWeakPassword    = errors.New("auth: password too short")
	ErrDuplicateUser   = errors.New("auth: user already registered")
	ErrAccountDisabled = errors.New("auth: account disabled after repeated failures")
)

// MaxFailures disables an account after this many consecutive bad
// passwords.
const MaxFailures = 5

// minPasswordLen is the weakest password the registry accepts.
const minPasswordLen = 4

type user struct {
	person    string
	projects  map[string]bool
	hash      uint64
	clearance mls.Label
	failures  int
	disabled  bool
}

// hashPassword is a deterministic non-cryptographic hash, standing in for
// the one-way password transformation of the real system (stdlib-only
// constraint; real deployments would use a KDF).
func hashPassword(pw string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(pw))
	return h.Sum64()
}

// Registry is the user data base of the answering service.
type Registry struct {
	users map[string]*user
}

// NewRegistry returns an empty user registry.
func NewRegistry() *Registry { return &Registry{users: make(map[string]*user)} }

// AddUser registers person on project with the given password and
// clearance.
func (r *Registry) AddUser(person, project, password string, clearance mls.Label) error {
	if person == "" || project == "" {
		return errors.New("auth: empty person or project")
	}
	if len(password) < minPasswordLen {
		return ErrWeakPassword
	}
	if _, dup := r.users[strings.ToLower(person)]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateUser, person)
	}
	r.users[strings.ToLower(person)] = &user{
		person:    person,
		projects:  map[string]bool{project: true},
		hash:      hashPassword(password),
		clearance: clearance,
	}
	return nil
}

// AddProject registers an existing user on an additional project.
func (r *Registry) AddProject(person, project string) error {
	u, ok := r.users[strings.ToLower(person)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownUser, person)
	}
	u.projects[project] = true
	return nil
}

// Authenticate verifies the password, maintaining the failure lockout.
func (r *Registry) Authenticate(person, password string) error {
	u, ok := r.users[strings.ToLower(person)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownUser, person)
	}
	if u.disabled {
		return fmt.Errorf("%w: %s", ErrAccountDisabled, person)
	}
	if u.hash != hashPassword(password) {
		u.failures++
		if u.failures >= MaxFailures {
			u.disabled = true
		}
		return ErrBadPassword
	}
	u.failures = 0
	return nil
}

// ChangePassword replaces person's password after verifying the old one.
func (r *Registry) ChangePassword(person, oldPassword, newPassword string) error {
	if err := r.Authenticate(person, oldPassword); err != nil {
		return err
	}
	if len(newPassword) < minPasswordLen {
		return ErrWeakPassword
	}
	r.users[strings.ToLower(person)].hash = hashPassword(newPassword)
	return nil
}

// Clearance returns the registered clearance of person.
func (r *Registry) Clearance(person string) (mls.Label, error) {
	u, ok := r.users[strings.ToLower(person)]
	if !ok {
		return mls.Label{}, fmt.Errorf("%w: %s", ErrUnknownUser, person)
	}
	return u.clearance, nil
}

// UserInfo returns the canonical (registered) spelling of person's name and
// their clearance, for callers that authenticated with a case-folded name.
func (r *Registry) UserInfo(person string) (string, mls.Label, error) {
	u, ok := r.users[strings.ToLower(person)]
	if !ok {
		return "", mls.Label{}, fmt.Errorf("%w: %s", ErrUnknownUser, person)
	}
	return u.person, u.clearance, nil
}

// CheckProject reports whether person is registered on project.
func (r *Registry) CheckProject(person, project string) error {
	u, ok := r.users[strings.ToLower(person)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownUser, person)
	}
	if !u.projects[project] {
		return fmt.Errorf("%w: %s on %s", ErrWrongProject, person, project)
	}
	return nil
}

// Session is the result of a successful login: the principal identity and
// the mandatory label the new process runs at.
type Session struct {
	Principal acl.Principal
	Label     mls.Label
}

// ProcessCreator is the single kernel function that remains privileged
// once login is demoted to a subsystem: create a process for an
// authenticated principal.
type ProcessCreator func(s Session) error

// Service is the answering service.
type Service struct {
	registry *Registry
	create   ProcessCreator
}

// NewService returns an answering service over registry. create, when
// not nil, creates the process of each successful login.
func NewService(registry *Registry, create ProcessCreator) *Service {
	return &Service{registry: registry, create: create}
}

// Login authenticates person/password, validates the project and the
// requested label against the clearance, and creates the process.
func (s *Service) Login(person, project, password string, requested mls.Label) (Session, error) {
	if err := s.registry.Authenticate(person, password); err != nil {
		return Session{}, err
	}
	canonical, clearance, err := s.registry.UserInfo(person)
	if err != nil {
		return Session{}, err
	}
	if err := s.registry.CheckProject(person, project); err != nil {
		return Session{}, err
	}
	if !clearance.Dominates(requested) {
		return Session{}, fmt.Errorf("%w: %v above %v", ErrClearance, requested, clearance)
	}
	sess := Session{
		Principal: acl.Principal{Person: canonical, Project: project, Tag: "a"},
		Label:     requested,
	}
	if s.create != nil {
		if err := s.create(sess); err != nil {
			return Session{}, fmt.Errorf("auth: creating process: %w", err)
		}
	}
	return sess, nil
}
