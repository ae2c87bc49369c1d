package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/boot"
	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// Kernel checkpoint and restore. A checkpoint runs at a virtual-cycle
// barrier: the scheduler is drained until no process is runnable and no
// timer is pending, every materialized page is flushed through the backing
// store, and a manifest — segment table, hierarchy snapshot, metrics
// snapshot — is paired durably with the block map by
// mem.BackingStore.Checkpoint. Restore hands the reopened backing store to
// build, which reverts it to the checkpoint map, re-adopts the segments,
// imports the hierarchy, and verifies the import by re-exporting it and
// comparing digests.
//
// Deliberately outside the checkpoint: the answering service's user
// registry (credentials are the driver's to re-register), installed
// program bodies, and live processes and sessions. A checkpoint captures
// the storage system — layers 1 and 2 — which is exactly what must survive
// a crash; everything above is reconstructed by logging in again, the same
// recovery story the paper's salvager tells for the hierarchy.

// ManifestVersion is the checkpoint manifest format version.
const ManifestVersion = 1

// SegmentRecord is one segment's entry in the checkpoint manifest.
type SegmentRecord struct {
	// UID is the segment's unique ID (also its hierarchy object UID).
	UID uint64 `json:"uid"`
	// Length is the segment length in words.
	Length int `json:"length"`
	// Pages lists the materialized page indexes, ascending. Every listed
	// page has a durable block in the checkpoint's block map; unlisted
	// pages materialize zero-filled on first touch, as they always do.
	Pages []int `json:"pages,omitempty"`
}

// Manifest is the checkpoint manifest: everything restore needs beyond the
// blocks themselves, paired durably with the block map by the backing
// store's Checkpoint record.
type Manifest struct {
	Version int `json:"version"`
	// Stage pins the kernel configuration; restore refuses nothing else,
	// it simply rebuilds at this stage.
	Stage Stage `json:"stage"`
	// VCycle is the virtual time of the barrier.
	VCycle int64 `json:"vcycle"`
	// PageWords guards against restoring into a differently-sized
	// hierarchy, which would shear every page boundary.
	PageWords int `json:"page_words"`
	// Segments is the layer-1 segment table.
	Segments []SegmentRecord `json:"segments"`
	// Hierarchy is the canonical fs snapshot (layer 2).
	Hierarchy json.RawMessage `json:"hierarchy"`
	// HierarchyDigest is the sha256 of the snapshot bytes; restore
	// re-exports the imported hierarchy and compares against this.
	HierarchyDigest string `json:"hierarchy_digest"`
	// Metrics is the measurement-plane snapshot at the barrier; restore
	// seeds its counters so observability is continuous across the crash.
	Metrics json.RawMessage `json:"metrics,omitempty"`
	// Meta is free-form caller annotation (experiment name, step count).
	Meta map[string]string `json:"meta,omitempty"`
}

// EncodeManifest serializes a manifest.
func EncodeManifest(m *Manifest) ([]byte, error) { return json.Marshal(m) }

// DecodeManifest deserializes and version-checks a manifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("core: checkpoint manifest version %d, want %d", m.Version, ManifestVersion)
	}
	return &m, nil
}

// CheckpointReport summarizes one checkpoint.
type CheckpointReport struct {
	// VCycle is the barrier time recorded in the manifest.
	VCycle int64 `json:"vcycle"`
	// Segments and PagesFlushed count what the flush walked and wrote.
	Segments     int `json:"segments"`
	PagesFlushed int `json:"pages_flushed"`
	// ManifestBytes is the encoded manifest size.
	ManifestBytes int `json:"manifest_bytes"`
	// HierarchyDigest identifies the hierarchy state for transcripts.
	HierarchyDigest string `json:"hierarchy_digest"`
	// Cycles is the virtual time the flush itself consumed (charged at
	// the disk-write rate per flushed page).
	Cycles int64 `json:"cycles"`
}

// Checkpoint drains the scheduler to a barrier, flushes every materialized
// page through the backing store, and writes the manifest durably. The
// flush is charged to the virtual clock at the disk-write rate. meta is
// attached to the manifest verbatim.
func (k *Kernel) Checkpoint(meta map[string]string) (*CheckpointReport, error) {
	// Quiesce: run the scheduler dry. With no runnable process and no
	// pending timer, no transfer is in flight and page tables are stable.
	k.sch.Run(0)

	// The checkpoint domain is the hierarchy's segments — the durable
	// storage system. Raw layer-1 segments outside the hierarchy (device
	// I/O buffers above bufferUIDBase) are session state: their sessions
	// die with the crash, and a rebooted device table re-allocates from
	// the same UID base, so checkpointing them would both waste journal
	// space and collide with post-restore attachments.
	uids := k.hier.UIDs()
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
	segs := make([]SegmentRecord, 0, len(uids))
	flushed := 0
	for _, uid := range uids {
		pages, err := k.store.FlushSegment(uid)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint flush of segment %#x: %w", uid, err)
		}
		sp, ok := k.store.Segment(uid)
		if !ok {
			return nil, fmt.Errorf("core: checkpoint lost segment %#x mid-flush", uid)
		}
		segs = append(segs, SegmentRecord{UID: uid, Length: sp.Length(), Pages: pages})
		flushed += len(pages)
	}
	// Charge the flush before stamping VCycle so the manifest's barrier
	// time includes the checkpoint's own cost, the way a real shutdown's
	// clock includes its final writes.
	cycles := int64(flushed) * k.store.Config().DiskWrite
	k.clock.Advance(cycles)

	hierSnap, err := k.hier.ExportSnapshot()
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint hierarchy export: %w", err)
	}
	digest := fs.SnapshotDigest(hierSnap)
	metSnap, err := json.Marshal(k.metrics.Snapshot())
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint metrics snapshot: %w", err)
	}
	man := &Manifest{
		Version:         ManifestVersion,
		Stage:           k.cfg.Stage,
		VCycle:          k.clock.Now(),
		PageWords:       k.store.Config().PageWords,
		Segments:        segs,
		Hierarchy:       hierSnap,
		HierarchyDigest: digest,
		Metrics:         metSnap,
		Meta:            meta,
	}
	data, err := EncodeManifest(man)
	if err != nil {
		return nil, fmt.Errorf("core: encoding checkpoint manifest: %w", err)
	}
	if err := k.store.Backing().Checkpoint(data); err != nil {
		return nil, fmt.Errorf("core: committing checkpoint: %w", err)
	}
	return &CheckpointReport{
		VCycle:          man.VCycle,
		Segments:        len(segs),
		PagesFlushed:    flushed,
		ManifestBytes:   len(data),
		HierarchyDigest: digest,
		Cycles:          cycles,
	}, nil
}

// RestoreReport summarizes one restore.
type RestoreReport struct {
	// VCycle is the checkpoint's barrier time; the restored clock starts
	// there plus the image-load cost.
	VCycle int64 `json:"vcycle"`
	// Stage is the configuration the checkpoint pinned.
	Stage Stage `json:"stage"`
	// Segments and Pages count what was re-adopted.
	Segments int `json:"segments"`
	Pages    int `json:"pages"`
	// HierarchyDigest is the verified snapshot digest.
	HierarchyDigest string `json:"hierarchy_digest"`
	// Meta is the manifest's caller annotation.
	Meta map[string]string `json:"meta,omitempty"`
}

// Restore boots a kernel from the checkpoint recorded in backing. The
// manifest pins the stage; cfg supplies everything the checkpoint
// deliberately excludes (cost model, fault spec, memory geometry — which
// must agree with the checkpoint's page size). The backing store is
// reverted to its checkpoint block map, segments are re-adopted at the
// disk level, and the hierarchy import is verified by re-export digest.
func Restore(cfg Config, backing mem.BackingStore) (*Kernel, *RestoreReport, error) {
	if backing == nil {
		return nil, nil, fmt.Errorf("core: restore requires a backing store")
	}
	data, err := backing.Manifest()
	if err != nil {
		return nil, nil, fmt.Errorf("core: reading checkpoint manifest: %w", err)
	}
	man, err := DecodeManifest(data)
	if err != nil {
		return nil, nil, err
	}
	cfg.Stage = man.Stage
	k, err := build(cfg, &restoreState{man: man, backing: backing})
	if err != nil {
		return nil, nil, err
	}
	pages := 0
	for _, seg := range man.Segments {
		pages += len(seg.Pages)
	}
	return k, &RestoreReport{
		VCycle:          man.VCycle,
		Stage:           man.Stage,
		Segments:        len(man.Segments),
		Pages:           pages,
		HierarchyDigest: man.HierarchyDigest,
		Meta:            man.Meta,
	}, nil
}

// restoreStorage rebuilds layers 1 and 2 from the manifest: revert the
// backing store to the checkpoint block map, re-adopt every segment with
// its pages at the disk level (verifying each page has a durable block),
// then import the hierarchy snapshot and prove the round trip by digest.
func (k *Kernel) restoreStorage(rst *restoreState) error {
	backing := k.store.Backing()
	if err := backing.RevertToCheckpoint(); err != nil {
		return fmt.Errorf("reverting backing store: %w", err)
	}
	for _, seg := range rst.man.Segments {
		if err := k.store.AdoptSegment(seg.UID, seg.Length, seg.Pages); err != nil {
			return err
		}
		for _, idx := range seg.Pages {
			pid := mem.PageID{SegUID: seg.UID, Index: idx}
			if _, err := backing.CheckpointBlock(pid); err != nil {
				return fmt.Errorf("checkpoint is missing page %v: %w", pid, err)
			}
		}
	}
	hier, err := fs.ImportSnapshot(k.store, rst.man.Hierarchy, k.metrics)
	if err != nil {
		return err
	}
	re, err := hier.ExportSnapshot()
	if err != nil {
		return fmt.Errorf("re-exporting imported hierarchy: %w", err)
	}
	if got := fs.SnapshotDigest(re); got != rst.man.HierarchyDigest {
		return fmt.Errorf("hierarchy snapshot round trip diverged: digest %s, manifest says %s",
			got, rst.man.HierarchyDigest)
	}
	k.hier = hier
	return nil
}

// restoreBoot is the restore path's stand-in for initialize: the system
// comes up by one privileged image-load step, and the clock resumes at the
// checkpoint barrier plus that load's cost so post-restore virtual time is
// deterministic.
func (k *Kernel) restoreBoot(man *Manifest) {
	// Seed the measurement plane with the checkpoint's counter totals so
	// counters read as continuous across the crash. Gauges and histograms
	// describe live state (active connections, latency populations) that
	// did not survive; they restart empty.
	var snap metrics.Snapshot
	if len(man.Metrics) > 0 {
		if err := json.Unmarshal(man.Metrics, &snap); err == nil {
			for _, c := range snap.Counters {
				k.metrics.Counter(c.Name).Add(c.Value)
			}
		}
	}
	k.clock.Advance(man.VCycle + boot.ImageLoadCycles)
	k.BootReport = fmt.Sprintf("restored from checkpoint at vcycle %d: one privileged image-load step", man.VCycle)
	k.PrivilegedBootSteps = 1
	k.PrivilegedBootCycles = boot.ImageLoadCycles
}
