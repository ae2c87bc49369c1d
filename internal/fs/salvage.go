package fs

import (
	"fmt"
	"sort"
	"strings"
)

// The salvager: the hierarchy consistency checker that the real system ran
// at every bootstrap ("salvage-check-hierarchy" in the standard
// initialization sequence). It walks the tree from the root and verifies
// the invariants the rest of the kernel relies on, optionally repairing
// what can be repaired safely.
//
// The salvager runs with kernel authority on a quiescent hierarchy (at
// bootstrap, or after the fault plane simulates a crash) — it reaches
// directly into object state rather than going through the access-checked
// interfaces. Because its repairs and the fault plane's injected damage
// bypass the generation counters that keep the path cache honest, both
// Salvage and CorruptForTesting end by flushing it wholesale.

// ProblemKind classifies a salvager finding.
type ProblemKind int

// Salvager problem kinds.
const (
	// OrphanObject: an object exists in the object table but is reachable
	// from no directory entry.
	OrphanObject ProblemKind = iota
	// DanglingEntry: a directory entry points at a UID with no object.
	DanglingEntry
	// ParentMismatch: an object's parent pointer disagrees with the
	// directory that actually holds its branch.
	ParentMismatch
	// LabelInversion: an object's label fails to dominate its parent
	// directory's label (the compatibility rule).
	LabelInversion
	// MissingStorage: a live object has no layer-1 segment behind it.
	MissingStorage
	// NameMismatch: an object's recorded branch name differs from the
	// entry naming it.
	NameMismatch
)

func (k ProblemKind) String() string {
	switch k {
	case OrphanObject:
		return "orphan-object"
	case DanglingEntry:
		return "dangling-entry"
	case ParentMismatch:
		return "parent-mismatch"
	case LabelInversion:
		return "label-inversion"
	case MissingStorage:
		return "missing-storage"
	case NameMismatch:
		return "name-mismatch"
	default:
		return fmt.Sprintf("problem(%d)", int(k))
	}
}

// Problem is one salvager finding.
type Problem struct {
	Kind ProblemKind
	// UID is the object concerned (the directory for DanglingEntry).
	UID uint64
	// Name is the entry name concerned, when applicable.
	Name string
	// Repaired reports whether the salvager fixed it.
	Repaired bool
	Detail   string
}

func (p Problem) String() string {
	state := "found"
	if p.Repaired {
		state = "repaired"
	}
	return fmt.Sprintf("%s %s uid=%#x name=%q: %s", state, p.Kind, p.UID, p.Name, p.Detail)
}

// SalvageReport summarizes a salvager run.
type SalvageReport struct {
	ObjectsWalked int
	Problems      []Problem
}

// Count returns the number of problems of kind k.
func (r *SalvageReport) Count(k ProblemKind) int {
	n := 0
	for _, p := range r.Problems {
		if p.Kind == k {
			n++
		}
	}
	return n
}

// Clean reports whether no problems were found.
func (r *SalvageReport) Clean() bool { return len(r.Problems) == 0 }

// Repaired returns the number of problems the salvager fixed.
func (r *SalvageReport) Repaired() int {
	n := 0
	for _, p := range r.Problems {
		if p.Repaired {
			n++
		}
	}
	return n
}

// Format renders the report canonically — a summary line followed by one
// line per problem in walk order. The walk is deterministic (sorted
// names, sorted UIDs), so two runs that found the same damage produce
// byte-identical renderings; the fault-storm experiment compares reports
// across replays this way.
func (r *SalvageReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "salvage: walked %d objects, %d problems, %d repaired\n",
		r.ObjectsWalked, len(r.Problems), r.Repaired())
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "  %s\n", p)
	}
	return b.String()
}

// Salvage walks the hierarchy and verifies its invariants. With repair set
// it fixes what it safely can: dangling entries are removed, orphans are
// re-attached under the recovery directory ">lost+found" (created on
// demand), parent pointers are corrected, and missing storage is
// re-created empty. Label inversions are only reported — relabeling is a
// security decision the salvager must not make.
func (h *Hierarchy) Salvage(repair bool) (*SalvageReport, error) {
	rep := &SalvageReport{}
	// Repairs mutate structures without the per-mutation generation
	// bumps; drop every memoized decision and prefix when done.
	defer h.FlushCaches()

	// Pass 1: walk from the root, recording reachability and checking
	// per-entry invariants.
	reachable := map[uint64]bool{RootUID: true}
	var walk func(dirUID uint64) error
	walk = func(dirUID uint64) error {
		dir, ok := h.objects[dirUID]
		if !ok || dir.Kind != KindDirectory {
			return fmt.Errorf("fs: salvager walked into non-directory %#x", dirUID)
		}
		names := make([]string, 0, len(dir.entries))
		for n := range dir.entries {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			e := dir.entries[name]
			if e.IsLink() {
				continue // links may dangle by design; resolution reports it
			}
			obj, ok := h.objects[e.UID]
			if !ok {
				p := Problem{Kind: DanglingEntry, UID: dirUID, Name: name,
					Detail: fmt.Sprintf("entry points at missing object %#x", e.UID)}
				if repair {
					delete(dir.entries, name)
					p.Repaired = true
				}
				rep.Problems = append(rep.Problems, p)
				continue
			}
			reachable[e.UID] = true
			if obj.parent != dirUID {
				p := Problem{Kind: ParentMismatch, UID: obj.UID, Name: name,
					Detail: fmt.Sprintf("parent pointer %#x, branch held by %#x", obj.parent, dirUID)}
				if repair {
					obj.parent = dirUID
					p.Repaired = true
				}
				rep.Problems = append(rep.Problems, p)
			}
			if obj.name != name {
				p := Problem{Kind: NameMismatch, UID: obj.UID, Name: name,
					Detail: fmt.Sprintf("object records name %q", obj.name)}
				if repair {
					obj.name = name
					p.Repaired = true
				}
				rep.Problems = append(rep.Problems, p)
			}
			if !obj.label.Dominates(dir.label) {
				rep.Problems = append(rep.Problems, Problem{Kind: LabelInversion, UID: obj.UID, Name: name,
					Detail: fmt.Sprintf("label %v under directory label %v", obj.label, dir.label)})
			}
			if _, ok := h.store.Segment(obj.UID); !ok {
				p := Problem{Kind: MissingStorage, UID: obj.UID, Name: name,
					Detail: "no layer-1 segment behind the object"}
				if repair {
					if _, err := h.store.CreateSegment(obj.UID, 0); err == nil {
						p.Repaired = true
					}
				}
				rep.Problems = append(rep.Problems, p)
			}
			if obj.Kind == KindDirectory {
				if err := walk(obj.UID); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(RootUID); err != nil {
		return nil, err
	}

	// Pass 2: orphans — objects in the table that pass 1 never reached.
	uids := h.UIDs()
	rep.ObjectsWalked = len(uids)
	for _, uid := range uids {
		if reachable[uid] {
			continue
		}
		obj, ok := h.objects[uid]
		if !ok {
			continue
		}
		p := Problem{Kind: OrphanObject, UID: uid, Name: obj.name,
			Detail: "object unreachable from the root"}
		if repair {
			lost, err := h.lostAndFound()
			if err == nil {
				lostDir, _ := h.objects[lost]
				name := fmt.Sprintf("orphan.%x", uid)
				if _, dup := lostDir.entries[name]; !dup {
					lostDir.entries[name] = &DirEntry{Name: name, UID: uid}
					obj.parent = lost
					obj.name = name
					p.Repaired = true
				}
			}
		}
		rep.Problems = append(rep.Problems, p)
	}
	return rep, nil
}

// lostAndFound returns the recovery directory's UID, creating it directly
// (the salvager runs with kernel authority during initialization).
func (h *Hierarchy) lostAndFound() (uint64, error) {
	root, _ := h.objects[RootUID]
	if e, ok := root.entries["lost+found"]; ok && !e.IsLink() {
		return e.UID, nil
	}
	uid := h.allocUID()
	lost := &Object{
		UID:     uid,
		Kind:    KindDirectory,
		name:    "lost+found",
		parent:  RootUID,
		label:   root.label,
		dacl:    root.dacl,
		entries: make(map[string]*DirEntry),
	}
	if _, err := h.store.CreateSegment(uid, 0); err != nil {
		return 0, err
	}
	h.objects[lost.UID] = lost
	root.entries["lost+found"] = &DirEntry{Name: "lost+found", UID: uid}
	return uid, nil
}

// CorruptForTesting damages the hierarchy in a controlled way so salvager
// tests and failure-injection experiments can exercise each problem class.
// It is exported for tests only and performs no access checks.
func (h *Hierarchy) CorruptForTesting(kind ProblemKind, uid uint64) error {
	// Injected damage bypasses the generation discipline entirely.
	defer h.FlushCaches()
	obj, ok := h.objects[uid]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNoSuchUID, uid)
	}
	switch kind {
	case OrphanObject:
		parent, ok := h.objects[obj.parent]
		if !ok {
			return fmt.Errorf("fs: object %#x has no parent", uid)
		}
		delete(parent.entries, obj.name)
	case DanglingEntry:
		delete(h.objects, uid)
		_ = h.store.DeleteSegment(uid)
		// the parent's entry remains, now dangling
	case ParentMismatch:
		root, _ := h.objects[RootUID]
		if root.entries[obj.name] != nil {
			return fmt.Errorf("fs: cannot fake mismatch for %q", obj.name)
		}
		obj.parent = RootUID // point at root regardless of truth
	case NameMismatch:
		obj.name = obj.name + ".wrong"
	case MissingStorage:
		return h.store.DeleteSegment(uid)
	default:
		return fmt.Errorf("fs: cannot inject %v", kind)
	}
	return nil
}

// RelabelForTesting sets an object's label directly, bypassing policy —
// salvager tests use it to manufacture label inversions. The path cache
// is invalidated via the normal reclassification bump.
func (h *Hierarchy) RelabelForTesting(uid uint64, label Label) error {
	return h.Reclassify(uid, label)
}
