// Package mls implements the formal access-constraint model the paper's
// MITRE collaborators were developing: a lattice of security levels that
// "restrict information flow in a hierarchy of compartments to patterns
// consistent with the national security classification scheme".
//
// A label is a classification level plus a set of compartments. Label A
// dominates label B when A's level is at least B's and A's compartments
// include B's. The kernel's bottom layer enforces:
//
//   - simple security (no read up): a process may observe an object only if
//     the process label dominates the object label;
//   - the *-property (no write down): a process may modify an object only if
//     the object label dominates the process label.
//
// Per the paper's partitioning suggestion, these mandatory checks live at
// the *bottom* layer of the kernel; discretionary sharing mechanisms sit in
// the layer above and are common only within a compartment.
package mls

import (
	"fmt"
	"sort"
	"strings"
)

// Level is a hierarchical classification level.
type Level int

// The classification hierarchy used by the reproduction.
const (
	Unclassified Level = iota
	Confidential
	Secret
	TopSecret
)

func (l Level) String() string {
	switch l {
	case Unclassified:
		return "unclassified"
	case Confidential:
		return "confidential"
	case Secret:
		return "secret"
	case TopSecret:
		return "top-secret"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel parses a level name.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "unclassified", "u":
		return Unclassified, nil
	case "confidential", "c":
		return Confidential, nil
	case "secret", "s":
		return Secret, nil
	case "top-secret", "topsecret", "ts":
		return TopSecret, nil
	default:
		return 0, fmt.Errorf("mls: unknown level %q", s)
	}
}

// Label is a security label: a level plus a compartment set.
type Label struct {
	Level        Level
	compartments map[string]bool
}

// NewLabel returns a label at the given level with the given compartments.
func NewLabel(level Level, compartments ...string) Label {
	l := Label{Level: level, compartments: make(map[string]bool, len(compartments))}
	for _, c := range compartments {
		l.compartments[c] = true
	}
	return l
}

// Compartments returns the sorted compartment names.
func (l Label) Compartments() []string {
	out := make([]string, 0, len(l.compartments))
	for c := range l.compartments {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// HasCompartment reports whether the label carries compartment c.
func (l Label) HasCompartment(c string) bool { return l.compartments[c] }

func (l Label) String() string {
	if len(l.compartments) == 0 {
		return l.Level.String()
	}
	return l.Level.String() + "{" + strings.Join(l.Compartments(), ",") + "}"
}

// CacheKey returns a canonical string form of the label suitable as a map
// key; the hierarchy's path cache keys each subject's view by it. Two
// labels are Equal exactly when their CacheKeys are identical. For the
// common compartment-free label this is the level's constant name — no
// allocation on the hot path; compartmented labels fall back to the full
// String rendering (sorted, so canonical).
func (l Label) CacheKey() string {
	if len(l.compartments) == 0 {
		return l.Level.String()
	}
	return l.String()
}

// Dominates reports whether l dominates other: l.Level >= other.Level and
// l's compartments are a superset of other's.
func (l Label) Dominates(other Label) bool {
	if l.Level < other.Level {
		return false
	}
	for c := range other.compartments {
		if !l.compartments[c] {
			return false
		}
	}
	return true
}

// Equal reports whether two labels are identical.
func (l Label) Equal(other Label) bool {
	return l.Dominates(other) && other.Dominates(l)
}

// Comparable reports whether the two labels are ordered either way in the
// lattice. Incomparable labels share no permitted flow in either direction.
func (l Label) Comparable(other Label) bool {
	return l.Dominates(other) || other.Dominates(l)
}

// Join returns the least upper bound of two labels: the max level and the
// union of compartments. Data derived from both inputs must carry at least
// this label.
func (l Label) Join(other Label) Label {
	level := l.Level
	if other.Level > level {
		level = other.Level
	}
	out := NewLabel(level)
	for c := range l.compartments {
		out.compartments[c] = true
	}
	for c := range other.compartments {
		out.compartments[c] = true
	}
	return out
}

// Meet returns the greatest lower bound: the min level and the intersection
// of compartments.
func (l Label) Meet(other Label) Label {
	level := l.Level
	if other.Level < level {
		level = other.Level
	}
	out := NewLabel(level)
	for c := range l.compartments {
		if other.compartments[c] {
			out.compartments[c] = true
		}
	}
	return out
}

// ViolationKind classifies mandatory-policy violations.
type ViolationKind int

// Violation kinds.
const (
	// ReadUp: a process tried to observe data its label does not dominate.
	ReadUp ViolationKind = iota
	// WriteDown: a process tried to modify data whose label does not
	// dominate the process label (an information flow downward).
	WriteDown
)

func (k ViolationKind) String() string {
	if k == ReadUp {
		return "read-up (simple security)"
	}
	return "write-down (*-property)"
}

// Violation reports a mandatory access-control denial.
type Violation struct {
	Kind    ViolationKind
	Subject Label
	Object  Label
}

func (v *Violation) Error() string {
	return fmt.Sprintf("mls: %v violation: subject %v, object %v", v.Kind, v.Subject, v.Object)
}

// CheckRead enforces simple security: subject may read object only if
// subject dominates object.
func CheckRead(subject, object Label) error {
	if subject.Dominates(object) {
		return nil
	}
	return &Violation{Kind: ReadUp, Subject: subject, Object: object}
}

// CheckWrite enforces the *-property: subject may write object only if
// object dominates subject.
func CheckWrite(subject, object Label) error {
	if object.Dominates(subject) {
		return nil
	}
	return &Violation{Kind: WriteDown, Subject: subject, Object: object}
}

// CheckReadWrite permits simultaneous read/write access only at exactly the
// subject's label.
func CheckReadWrite(subject, object Label) error {
	if err := CheckRead(subject, object); err != nil {
		return err
	}
	return CheckWrite(subject, object)
}
