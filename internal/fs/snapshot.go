package fs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/acl"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mls"
)

// Checkpoint snapshot of the naming hierarchy. The encoding is canonical —
// objects sorted by UID, entries by name, ACLs in their specificity order,
// compartments sorted — so exporting an imported snapshot reproduces the
// original bytes. Restore exploits that: it re-exports the rebuilt
// hierarchy and compares digests, which verifies every field made the
// round trip rather than trusting the decoder.
//
// The snapshot covers layer-2 state only (names, labels, ACLs, brackets,
// entry maps). Layer-1 storage — the segments themselves — travels in the
// checkpoint manifest's segment table and the backing store's blocks.

const snapshotVersion = 1

type snapLabel struct {
	Level        int      `json:"level"`
	Compartments []string `json:"compartments,omitempty"`
}

type snapACLEntry struct {
	Person  string `json:"person"`
	Project string `json:"project"`
	Tag     string `json:"tag"`
	Mode    uint8  `json:"mode"`
}

type snapEntry struct {
	Name   string `json:"name"`
	UID    uint64 `json:"uid,omitempty"`
	LinkTo string `json:"link_to,omitempty"`
}

type snapObject struct {
	UID      uint64         `json:"uid"`
	Kind     int            `json:"kind"`
	Name     string         `json:"name"`
	Parent   uint64         `json:"parent"`
	Label    snapLabel      `json:"label"`
	ACL      []snapACLEntry `json:"acl"`
	Author   acl.Principal  `json:"author"`
	R1       int            `json:"r1"`
	R2       int            `json:"r2"`
	R3       int            `json:"r3"`
	Gates    int            `json:"gates"`
	BitCount int            `json:"bit_count"`
	Entries  []snapEntry    `json:"entries,omitempty"`
}

type snapshot struct {
	Version int          `json:"version"`
	NextUID uint64       `json:"next_uid"`
	Objects []snapObject `json:"objects"`
}

// ExportSnapshot serializes the live hierarchy canonically.
func (h *Hierarchy) ExportSnapshot() ([]byte, error) {
	snap := snapshot{Version: snapshotVersion}
	uids := h.UIDs()
	snap.Objects = make([]snapObject, 0, len(uids))
	for _, uid := range uids {
		o := h.objects[uid]
		so := snapObject{
			UID:      o.UID,
			Kind:     int(o.Kind),
			Name:     o.name,
			Parent:   o.parent,
			Label:    snapLabel{Level: int(o.label.Level), Compartments: o.label.Compartments()},
			Author:   o.Author,
			R1:       int(o.Brackets.R1),
			R2:       int(o.Brackets.R2),
			R3:       int(o.Brackets.R3),
			Gates:    o.Gates,
			BitCount: o.bitCount,
		}
		for _, e := range o.dacl.Entries() {
			so.ACL = append(so.ACL, snapACLEntry{
				Person: e.Who.Person, Project: e.Who.Project, Tag: e.Who.Tag,
				Mode: uint8(e.Mode),
			})
		}
		if o.Kind == KindDirectory {
			so.Entries = make([]snapEntry, 0, len(o.entries))
			for _, e := range o.entries {
				so.Entries = append(so.Entries, snapEntry{Name: e.Name, UID: e.UID, LinkTo: e.LinkTo})
			}
			sort.Slice(so.Entries, func(i, j int) bool { return so.Entries[i].Name < so.Entries[j].Name })
		}
		snap.Objects = append(snap.Objects, so)
	}
	// Restore must continue UID allocation where the checkpoint left off
	// so post-restore creates repeat the uninterrupted run.
	snap.NextUID = h.nextUID
	return json.Marshal(snap)
}

// SnapshotDigest returns the hex sha256 of snapshot bytes.
func SnapshotDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ImportSnapshot rebuilds a hierarchy from snapshot bytes on top of store.
// The segments themselves must already be registered in store (the restore
// path adopts them from the checkpoint manifest before importing names).
func ImportSnapshot(store *mem.Store, data []byte) (*Hierarchy, error) {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("fs: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("fs: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	h := &Hierarchy{store: store, nextUID: snap.NextUID, objects: make(map[uint64]*Object)}
	h.SetMetrics(metrics.New())
	sawRoot := false
	for _, so := range snap.Objects {
		entries := make([]acl.Entry, 0, len(so.ACL))
		for _, e := range so.ACL {
			entries = append(entries, acl.Entry{
				Who:  acl.Pattern{Person: e.Person, Project: e.Project, Tag: e.Tag},
				Mode: acl.Mode(e.Mode),
			})
		}
		o := &Object{
			UID:    so.UID,
			Kind:   Kind(so.Kind),
			Author: so.Author,
			Brackets: machine.Brackets{
				R1: machine.Ring(so.R1), R2: machine.Ring(so.R2), R3: machine.Ring(so.R3),
			},
			Gates:    so.Gates,
			name:     so.Name,
			parent:   so.Parent,
			label:    mls.NewLabel(mls.Level(so.Label.Level), so.Label.Compartments...),
			dacl:     acl.New(entries...),
			bitCount: so.BitCount,
		}
		if o.Kind == KindDirectory {
			o.entries = make(map[string]*DirEntry, len(so.Entries))
			for _, e := range so.Entries {
				o.entries[e.Name] = &DirEntry{Name: e.Name, UID: e.UID, LinkTo: e.LinkTo}
			}
		}
		if _, ok := h.objects[so.UID]; ok {
			return nil, fmt.Errorf("fs: snapshot repeats UID %#x", so.UID)
		}
		h.objects[so.UID] = o
		if so.UID == RootUID {
			sawRoot = true
		}
	}
	if !sawRoot {
		return nil, fmt.Errorf("fs: snapshot has no root directory")
	}
	// Branch entries must point at objects the snapshot carried; a dangling
	// entry here is a corrupt snapshot, not something to salvage later.
	for _, so := range snap.Objects {
		for _, e := range so.Entries {
			if e.LinkTo != "" {
				continue
			}
			if _, ok := h.objects[e.UID]; !ok {
				return nil, fmt.Errorf("fs: snapshot entry %q in %#x points at missing object %#x", e.Name, so.UID, e.UID)
			}
		}
	}
	return h, nil
}
