package fs

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// TestQuickPathOfInvertsResolve builds random trees and verifies that
// PathOf and ResolvePath are mutual inverses for every object created.
func TestQuickPathOfInvertsResolve(t *testing.T) {
	f := func(ops []uint8) bool {
		cfg := mem.DefaultConfig()
		cfg.CoreFrames = 512
		store, err := mem.NewStore(cfg)
		if err != nil {
			return false
		}
		h, err := New(store, unc, nil)
		if err != nil {
			return false
		}
		dirs := []uint64{RootUID}
		var all []uint64
		for i, op := range ops {
			parent := dirs[int(op)%len(dirs)]
			name := fmt.Sprintf("n%d", i)
			kind := KindSegment
			if op%3 == 0 {
				kind = KindDirectory
			}
			uid, err := h.Create(alice, unc, parent, name, CreateOptions{Kind: kind, Label: unc})
			if err != nil {
				return false
			}
			if kind == KindDirectory {
				dirs = append(dirs, uid)
			}
			all = append(all, uid)
		}
		for _, uid := range all {
			path, err := h.PathOf(uid)
			if err != nil {
				return false
			}
			back, err := h.ResolvePath(alice, unc, path)
			if err != nil || back != uid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeleteLeavesNoOrphans randomly creates and deletes entries; at
// the end every remaining object must resolve and every deleted UID must
// be gone from both layers.
func TestQuickDeleteLeavesNoOrphans(t *testing.T) {
	f := func(ops []uint8) bool {
		cfg := mem.DefaultConfig()
		cfg.CoreFrames = 512
		store, err := mem.NewStore(cfg)
		if err != nil {
			return false
		}
		h, err := New(store, unc, nil)
		if err != nil {
			return false
		}
		type entry struct {
			uid  uint64
			name string
		}
		var live []entry
		var deleted []uint64
		for i, op := range ops {
			if op%4 == 3 && len(live) > 0 {
				idx := int(op) % len(live)
				e := live[idx]
				if err := h.Delete(alice, unc, RootUID, e.name); err != nil {
					return false
				}
				deleted = append(deleted, e.uid)
				live = append(live[:idx], live[idx+1:]...)
				continue
			}
			name := fmt.Sprintf("s%d", i)
			uid, err := h.Create(alice, unc, RootUID, name, CreateOptions{Kind: KindSegment, Label: unc, Length: 8})
			if err != nil {
				return false
			}
			live = append(live, entry{uid, name})
		}
		for _, e := range live {
			if _, err := h.Object(e.uid); err != nil {
				return false
			}
			if _, ok := store.Segment(e.uid); !ok {
				return false
			}
		}
		for _, uid := range deleted {
			if _, err := h.Object(uid); err == nil {
				return false
			}
			if _, ok := store.Segment(uid); ok {
				return false // layer-1 storage leaked
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestDeepHierarchy exercises long paths and deep PathOf walks.
func TestDeepHierarchy(t *testing.T) {
	cfg := mem.DefaultConfig()
	cfg.CoreFrames = 512
	store, err := mem.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(store, unc, nil)
	if err != nil {
		t.Fatal(err)
	}
	parent := uint64(RootUID)
	const depth = 40
	for i := 0; i < depth; i++ {
		uid, err := h.Create(alice, unc, parent, fmt.Sprintf("d%d", i), CreateOptions{Kind: KindDirectory, Label: unc})
		if err != nil {
			t.Fatalf("depth %d: %v", i, err)
		}
		parent = uid
	}
	leaf, err := h.Create(alice, unc, parent, "leaf", CreateOptions{Kind: KindSegment, Label: unc})
	if err != nil {
		t.Fatal(err)
	}
	path, err := h.PathOf(leaf)
	if err != nil {
		t.Fatal(err)
	}
	uid, err := h.ResolvePath(alice, unc, path)
	if err != nil || uid != leaf {
		t.Errorf("deep resolve = %#x, %v", uid, err)
	}
}
