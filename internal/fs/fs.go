// Package fs implements the Multics storage hierarchy in the two layers the
// paper's partitioning section proposes:
//
// Layer 1 (uidstore.go) is a flat file system in which every segment is
// named by a system-generated unique identifier. It knows nothing about
// names, directories, or sharing — only UIDs, lengths, and mandatory (MLS)
// labels, which per the paper belong at the bottom layer.
//
// Layer 2 (hierarchy.go, this file's Hierarchy type) implements the naming
// hierarchy on top of layer 1: directories, branches, links, per-branch
// access control lists and ring brackets. Directories are themselves layer-1
// objects and "the actual file system hierarchy remains protected inside the
// supervisor": user code reaches it only through kernel gates.
//
// The hierarchy exposes two interfaces, matching the before/after of the
// reference-name removal project:
//
//   - ResolvePath: the old interface, where the kernel itself follows a
//     character-string tree name through the hierarchy; and
//   - per-directory primitives (Lookup, Create, ...) keyed by directory UID,
//     the new simpler interface that lets tree-name resolution move into the
//     user ring.
//
// One goroutine at a time drives a hierarchy, as it drives the kernel that
// owns it (DESIGN.md, "One driver per kernel"), so nothing here locks.
// Nothing here caches either: every tree-name walk looks up and checks
// each directory on its way, and every access check runs the ACL check
// plus the mandatory checks, so a mutation needs no invalidation step and
// a revocation takes effect on the very next check.
package fs

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/acl"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mls"
)

// Principal aliases acl.Principal: fs signatures name it constantly.
type Principal = acl.Principal

// Label aliases mls.Label.
type Label = mls.Label

// Kind distinguishes the two object kinds of the hierarchy.
type Kind int

// Object kinds.
const (
	KindSegment Kind = iota
	KindDirectory
)

func (k Kind) String() string {
	if k == KindDirectory {
		return "directory"
	}
	return "segment"
}

// RootUID is the unique ID of the root directory.
const RootUID uint64 = 1

// Object is one layer-1 object plus the layer-2 attributes its branch
// carries: the ACL, ring brackets, and (for directories) the entry map.
//
// UID, Kind, Author, Brackets and Gates are immutable after creation. The
// remaining attributes are read through the accessor methods and mutated
// only by Hierarchy methods.
type Object struct {
	UID    uint64
	Kind   Kind
	Author acl.Principal
	// Brackets and Gates are the ring attributes given to SDWs that map
	// this segment.
	Brackets machine.Brackets
	Gates    int

	// name is the branch name in the parent directory.
	name string
	// parent is the parent directory UID (RootUID's parent is itself).
	parent uint64
	label  mls.Label
	dacl   *acl.ACL
	// bitCount is application data (Multics kept the meaningful length in
	// the branch); unused by the kernel but preserved by it.
	bitCount int
	entries  map[string]*DirEntry // directories only
	// dead marks an object whose branch has been deleted; a stale pointer
	// obtained before the delete must not mutate it.
	dead bool
}

// Name returns the object's branch name in its parent directory.
func (o *Object) Name() string { return o.name }

// Parent returns the parent directory UID (the root is its own parent).
func (o *Object) Parent() uint64 { return o.parent }

// Label returns the object's mandatory security label.
func (o *Object) Label() mls.Label { return o.label }

// BitCount returns the branch bit count.
func (o *Object) BitCount() int { return o.bitCount }

// ACLEntries returns a copy of the branch ACL, most specific first.
func (o *Object) ACLEntries() []acl.Entry { return o.dacl.Entries() }

// ACLModeFor computes the discretionary mode the branch ACL grants who.
func (o *Object) ACLModeFor(who acl.Principal) acl.Mode { return o.dacl.ModeFor(who) }

// CheckACL verifies who holds every bit of want on the branch ACL.
func (o *Object) CheckACL(who acl.Principal, want acl.Mode) error { return o.dacl.Check(who, want) }

// DirEntry is one entry of a directory: a branch to an object or a link to
// a path name.
type DirEntry struct {
	Name string
	// UID is the branch target; zero for links.
	UID uint64
	// LinkTo is the link target path; empty for branches.
	LinkTo string
}

// IsLink reports whether the entry is a link.
func (e DirEntry) IsLink() bool { return e.LinkTo != "" }

// Errors returned by the hierarchy.
var (
	ErrNotFound      = errors.New("fs: no entry by that name")
	ErrExists        = errors.New("fs: name already in use")
	ErrNotDirectory  = errors.New("fs: object is not a directory")
	ErrNotSegment    = errors.New("fs: object is not a segment")
	ErrNotEmpty      = errors.New("fs: directory not empty")
	ErrBadPath       = errors.New("fs: malformed path name")
	ErrLinkLoop      = errors.New("fs: too many links in path resolution")
	ErrParentLoop    = errors.New("fs: parent chain does not reach the root")
	ErrLabelTooLow   = errors.New("fs: object label must dominate directory label")
	ErrNoSuchUID     = errors.New("fs: no object with that unique ID")
	ErrRootImmutable = errors.New("fs: the root directory cannot be deleted")
)

// Hierarchy is the complete storage system: the layer-1 UID store plus the
// layer-2 naming hierarchy.
type Hierarchy struct {
	store *mem.Store
	// objects is the object table, keyed by UID.
	objects map[uint64]*Object
	nextUID uint64

	ops opCounters
}

// OpStats counts hierarchy operations.
type OpStats struct {
	Creates, Deletes, Lookups, Resolves, ACLChanges int64
}

// opCounters are the metrics-registry handles behind OpStats.
type opCounters struct {
	creates, deletes, lookups, resolves, aclChanges *metrics.Counter
}

func (c *opCounters) bind(reg *metrics.Registry) {
	c.creates = reg.Counter("fs.creates")
	c.deletes = reg.Counter("fs.deletes")
	c.lookups = reg.Counter("fs.lookups")
	c.resolves = reg.Counter("fs.resolves")
	c.aclChanges = reg.Counter("fs.acl_changes")
}

// New creates a hierarchy with a root directory labelled root, counting
// its operations into reg under fs.* names. The root ACL initially
// grants sma to every principal; real installations tighten it
// immediately.
func New(store *mem.Store, rootLabel mls.Label, reg *metrics.Registry) (*Hierarchy, error) {
	h := &Hierarchy{store: store, nextUID: RootUID + 1, objects: make(map[uint64]*Object)}
	h.ops.bind(reg)
	rootACL := acl.New(acl.Entry{
		Who:  acl.Pattern{Person: acl.Wildcard, Project: acl.Wildcard, Tag: acl.Wildcard},
		Mode: acl.ModeStatus | acl.ModeModify | acl.ModeAppend,
	})
	root := &Object{
		UID:      RootUID,
		Kind:     KindDirectory,
		name:     ">",
		parent:   RootUID,
		label:    rootLabel,
		dacl:     rootACL,
		Brackets: machine.KernelBrackets(),
		entries:  make(map[string]*DirEntry),
	}
	h.objects[RootUID] = root
	// Directories are layer-1 objects too: the hierarchy's own storage is
	// paged like everything else.
	if _, err := store.CreateSegment(RootUID, 0); err != nil {
		return nil, fmt.Errorf("fs: creating root storage: %w", err)
	}
	return h, nil
}

// Store returns the underlying memory hierarchy.
func (h *Hierarchy) Store() *mem.Store { return h.store }

// OpStats returns a snapshot of the operation counts.
func (h *Hierarchy) OpStats() OpStats {
	return OpStats{
		Creates:    h.ops.creates.Value(),
		Deletes:    h.ops.deletes.Value(),
		Lookups:    h.ops.lookups.Value(),
		Resolves:   h.ops.resolves.Value(),
		ACLChanges: h.ops.aclChanges.Value(),
	}
}

// Count returns the number of live objects in the hierarchy.
func (h *Hierarchy) Count() int { return len(h.objects) }

// UIDs returns every live object UID in ascending order. The fault
// plane uses the list to choose deterministic corruption targets for a
// simulated crash; the salvager's own walk does not need it.
func (h *Hierarchy) UIDs() []uint64 {
	out := make([]uint64, 0, len(h.objects))
	for uid := range h.objects {
		out = append(out, uid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Object returns the object with the given UID.
func (h *Hierarchy) Object(uid uint64) (*Object, error) {
	o, ok := h.objects[uid]
	if !ok {
		return nil, fmt.Errorf("%w: %#x", ErrNoSuchUID, uid)
	}
	return o, nil
}

// allocUID generates the next system-wide unique identifier.
func (h *Hierarchy) allocUID() uint64 {
	uid := h.nextUID
	h.nextUID++
	return uid
}

func (h *Hierarchy) directory(uid uint64) (*Object, error) {
	o, err := h.Object(uid)
	if err != nil {
		return nil, err
	}
	if o.Kind != KindDirectory {
		return nil, fmt.Errorf("%w: %#x", ErrNotDirectory, uid)
	}
	return o, nil
}

// checkDir verifies discretionary directory access plus the mandatory
// checks: observing a directory requires reading it, changing it requires
// writing it.
func checkDir(dir *Object, who acl.Principal, subj mls.Label, want acl.Mode) error {
	if err := dir.dacl.Check(who, want); err != nil {
		return err
	}
	if want&(acl.ModeModify|acl.ModeAppend) != 0 {
		if err := mls.CheckWrite(subj, dir.label); err != nil {
			return err
		}
	}
	if want&acl.ModeStatus != 0 {
		if err := mls.CheckRead(subj, dir.label); err != nil {
			return err
		}
	}
	return nil
}

// CreateOptions parameterizes Create.
type CreateOptions struct {
	Kind  Kind
	Label mls.Label
	// ACL is the initial branch ACL; nil grants the author rew (segments)
	// or sma (directories).
	ACL *acl.ACL
	// Brackets default to user brackets when zero.
	Brackets machine.Brackets
	Gates    int
	// Length is the initial segment length in words.
	Length int
}

// Create makes a new branch named name in the directory dirUID. It requires
// append permission on the directory, and the new object's label must
// dominate the directory's (the compatibility rule that keeps labels
// non-decreasing down the tree).
func (h *Hierarchy) Create(who acl.Principal, subj mls.Label, dirUID uint64, name string, opts CreateOptions) (uint64, error) {
	dir, err := h.directory(dirUID)
	if err != nil {
		return 0, err
	}
	if err := validName(name); err != nil {
		return 0, err
	}
	if err := checkDir(dir, who, subj, acl.ModeAppend); err != nil {
		return 0, err
	}
	a := opts.ACL
	if a == nil {
		mode := acl.ModeRead | acl.ModeExecute | acl.ModeWrite
		if opts.Kind == KindDirectory {
			mode = acl.ModeStatus | acl.ModeModify | acl.ModeAppend
		}
		a = acl.New(acl.Entry{
			Who:  acl.Pattern{Person: who.Person, Project: who.Project, Tag: acl.Wildcard},
			Mode: mode,
		})
	}
	brackets := opts.Brackets
	if brackets == (machine.Brackets{}) {
		brackets = machine.UserBrackets(machine.UserRing)
	}
	if !brackets.Valid() {
		return 0, fmt.Errorf("fs: invalid ring brackets %v", brackets)
	}

	if dir.dead {
		return 0, fmt.Errorf("%w: %#x", ErrNoSuchUID, dirUID)
	}
	if _, ok := dir.entries[name]; ok {
		return 0, fmt.Errorf("%w: %q in %#x", ErrExists, name, dirUID)
	}
	if !opts.Label.Dominates(dir.label) {
		return 0, fmt.Errorf("%w: %v under %v", ErrLabelTooLow, opts.Label, dir.label)
	}
	uid := h.allocUID()
	o := &Object{
		UID:      uid,
		Kind:     opts.Kind,
		name:     name,
		parent:   dirUID,
		label:    opts.Label,
		dacl:     a,
		Author:   who,
		Brackets: brackets,
		Gates:    opts.Gates,
	}
	if opts.Kind == KindDirectory {
		o.entries = make(map[string]*DirEntry)
	}
	if _, err := h.store.CreateSegment(uid, opts.Length); err != nil {
		return 0, fmt.Errorf("fs: creating storage for %q: %w", name, err)
	}
	h.objects[uid] = o
	dir.entries[name] = &DirEntry{Name: name, UID: uid}
	h.ops.creates.Inc()
	return uid, nil
}

// AddLink adds a link entry named name pointing at the path target.
func (h *Hierarchy) AddLink(who acl.Principal, subj mls.Label, dirUID uint64, name, target string) error {
	dir, err := h.directory(dirUID)
	if err != nil {
		return err
	}
	if err := validName(name); err != nil {
		return err
	}
	if err := checkDir(dir, who, subj, acl.ModeAppend); err != nil {
		return err
	}
	if dir.dead {
		return fmt.Errorf("%w: %#x", ErrNoSuchUID, dirUID)
	}
	if _, ok := dir.entries[name]; ok {
		return fmt.Errorf("%w: %q in %#x", ErrExists, name, dirUID)
	}
	dir.entries[name] = &DirEntry{Name: name, LinkTo: target}
	h.ops.creates.Inc()
	return nil
}

// lookupEntry returns a copy of the entry name in dir, holding the checks
// the public Lookup performs. Shared by Lookup, LookupBytes and the path
// walker. The name is a string or its bytes, which it does not keep:
// indexing the map with the bytes makes no string.
func lookupEntry[N string | []byte](h *Hierarchy, dir *Object, who acl.Principal, subj mls.Label, name N) (DirEntry, error) {
	if err := checkDir(dir, who, subj, acl.ModeStatus); err != nil {
		return DirEntry{}, err
	}
	h.ops.lookups.Inc()
	e, ok := dir.entries[string(name)]
	if !ok {
		return DirEntry{}, fmt.Errorf("%w: %q in %#x", ErrNotFound, name, dir.UID)
	}
	return *e, nil
}

// Lookup finds the entry name in directory dirUID. It requires status
// permission on the directory. Links are returned as-is; the caller decides
// whether to chase them.
func (h *Hierarchy) Lookup(who acl.Principal, subj mls.Label, dirUID uint64, name string) (DirEntry, error) {
	dir, err := h.directory(dirUID)
	if err != nil {
		return DirEntry{}, err
	}
	return lookupEntry(h, dir, who, subj, name)
}

// LookupBytes is Lookup with the name's bytes, which it does not keep: a
// gate that reads an entry name from its caller looks it up without making
// a string of it. A miss reports the name as Lookup does.
func (h *Hierarchy) LookupBytes(who acl.Principal, subj mls.Label, dirUID uint64, name []byte) (DirEntry, error) {
	dir, err := h.directory(dirUID)
	if err != nil {
		return DirEntry{}, err
	}
	return lookupEntry(h, dir, who, subj, name)
}

// List appends the entry names of directory dirUID to names, in name
// order, and returns the extended slice; a caller that lists often passes
// the previous result's storage back in.
func (h *Hierarchy) List(who acl.Principal, subj mls.Label, dirUID uint64, names []string) ([]string, error) {
	dir, err := h.directory(dirUID)
	if err != nil {
		return names, err
	}
	if err := checkDir(dir, who, subj, acl.ModeStatus); err != nil {
		return names, err
	}
	h.ops.lookups.Inc()
	start := len(names)
	for name := range dir.entries {
		names = append(names, name)
	}
	slices.Sort(names[start:])
	return names, nil
}

// Delete removes the entry name from directory dirUID. Deleting a branch
// destroys the object; a non-empty directory cannot be deleted.
func (h *Hierarchy) Delete(who acl.Principal, subj mls.Label, dirUID uint64, name string) error {
	dir, err := h.directory(dirUID)
	if err != nil {
		return err
	}
	if err := checkDir(dir, who, subj, acl.ModeModify); err != nil {
		return err
	}
	e, ok := dir.entries[name]
	if !ok {
		return fmt.Errorf("%w: %q in %#x", ErrNotFound, name, dirUID)
	}
	if !e.IsLink() {
		obj, err := h.Object(e.UID)
		if err != nil {
			return err
		}
		if obj.UID == RootUID {
			return ErrRootImmutable
		}
		if obj.Kind == KindDirectory && len(obj.entries) > 0 {
			return fmt.Errorf("%w: %q", ErrNotEmpty, name)
		}
		obj.dead = true
		if err := h.store.DeleteSegment(obj.UID); err != nil {
			return fmt.Errorf("fs: releasing storage of %q: %w", name, err)
		}
		delete(h.objects, obj.UID)
	}
	delete(dir.entries, name)
	h.ops.deletes.Inc()
	return nil
}

// SetACL replaces the mode for pattern on the branch of object uid. Per the
// Multics rule, changing a branch's ACL requires modify permission on the
// containing directory, not on the object itself.
func (h *Hierarchy) SetACL(who acl.Principal, subj mls.Label, uid uint64, pattern acl.Pattern, mode acl.Mode) error {
	obj, err := h.Object(uid)
	if err != nil {
		return err
	}
	parent, err := h.directory(obj.Parent())
	if err != nil {
		return err
	}
	if err := checkDir(parent, who, subj, acl.ModeModify); err != nil {
		return err
	}
	obj.dacl.Set(pattern, mode)
	h.ops.aclChanges.Inc()
	return nil
}

// RemoveACL deletes the entry for pattern from the branch ACL of uid.
func (h *Hierarchy) RemoveACL(who acl.Principal, subj mls.Label, uid uint64, pattern acl.Pattern) error {
	obj, err := h.Object(uid)
	if err != nil {
		return err
	}
	parent, err := h.directory(obj.Parent())
	if err != nil {
		return err
	}
	if err := checkDir(parent, who, subj, acl.ModeModify); err != nil {
		return err
	}
	if !obj.dacl.Remove(pattern) {
		return fmt.Errorf("%w: no ACL entry %v", ErrNotFound, pattern)
	}
	h.ops.aclChanges.Inc()
	return nil
}

// Reclassify changes the mandatory label of object uid. It is a privileged
// operation (reached through the phcs_ gate only); the next walk or access
// check reads the new label.
func (h *Hierarchy) Reclassify(uid uint64, label mls.Label) error {
	obj, err := h.Object(uid)
	if err != nil {
		return err
	}
	obj.label = label
	h.ops.aclChanges.Inc()
	return nil
}

// SetBitCount stores the branch bit count of uid. Access is checked by the
// calling gate (write access on the segment), as with the other branch
// status attributes.
func (h *Hierarchy) SetBitCount(uid uint64, bc int) error {
	obj, err := h.Object(uid)
	if err != nil {
		return err
	}
	obj.bitCount = bc
	return nil
}

// CheckSegmentAccess performs the full kernel access computation for
// mapping segment uid with the wanted discretionary mode: the branch ACL
// check plus the mandatory checks (read implies simple security; write
// implies the *-property).
func (h *Hierarchy) CheckSegmentAccess(who acl.Principal, subj mls.Label, uid uint64, want acl.Mode) (*Object, error) {
	obj, err := h.Object(uid)
	if err != nil {
		return nil, err
	}
	if obj.Kind != KindSegment {
		return nil, fmt.Errorf("%w: %#x", ErrNotSegment, uid)
	}
	if err := obj.dacl.Check(who, want); err != nil {
		return nil, err
	}
	if want&(acl.ModeRead|acl.ModeExecute) != 0 {
		if err := mls.CheckRead(subj, obj.label); err != nil {
			return nil, err
		}
	}
	if want&acl.ModeWrite != 0 {
		if err := mls.CheckWrite(subj, obj.label); err != nil {
			return nil, err
		}
	}
	return obj, nil
}

// SetLength changes the length of segment uid; the caller must hold write
// access (checked by CheckSegmentAccess).
func (h *Hierarchy) SetLength(who acl.Principal, subj mls.Label, uid uint64, length int) error {
	if _, err := h.CheckSegmentAccess(who, subj, uid, acl.ModeWrite); err != nil {
		return err
	}
	return h.store.SetLength(uid, length)
}

func validName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("%w: %q", ErrBadPath, name)
	}
	for _, c := range name {
		if c == '>' || c == '<' {
			return fmt.Errorf("%w: %q contains a path delimiter", ErrBadPath, name)
		}
	}
	return nil
}
