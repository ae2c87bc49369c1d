package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/acl"
	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/mls"
)

// E18 measures the hierarchy at the ROADMAP's target scale: a tree of a
// million-plus segments where tree-name resolution is served by the
// revocation-safe path-prefix cache, against the uncached per-component
// walk the paper's design pays on every access.
//
// It measures wall-clock on real data structures, so it is
// registered in cmd/experiments only, not in the deterministic RunAll set.
// The revocation-correctness half also runs as a regular test: see
// e18_test.go.

// e18 tree geometry: 8 levels of fanout 4 is 65,536 leaf directories;
// 17 segments per leaf crosses the million-segment line (1,114,112).
// Deep paths are the honest shape for this comparison: the paper's
// per-component walk pays nine lookups with nine ACL evaluations here,
// which is what user-directory trees at this population look like.
const (
	e18Levels      = 8
	e18Fanout      = 4
	e18SegsPerLeaf = 17
	e18Sample      = 50000 // resolved paths per timing pass
	e18Rounds      = 3     // alternating uncached/cached timing rounds
)

var (
	e18Who  = fs.Principal{Person: "Bench", Project: "CSR", Tag: "a"}
	e18Self = mls.NewLabel(mls.Unclassified)
)

func e18NewHierarchy(frames int) *fs.Hierarchy {
	cfg := mem.DefaultConfig()
	cfg.CoreFrames = frames
	store, err := mem.NewStore(cfg)
	if err != nil {
		panic(err)
	}
	h, err := fs.New(store, e18Self)
	if err != nil {
		panic(err)
	}
	return h
}

// e18Build populates the full tree and returns every e18Sample-th segment
// path (stride sampling keeps the working set spread over the whole tree
// instead of clustered in one subtree).
func e18Build(h *fs.Hierarchy) (paths []string, segments int) {
	total := 1
	for i := 0; i < e18Levels; i++ {
		total *= e18Fanout
	}
	total *= e18SegsPerLeaf
	stride := total / e18Sample
	if stride == 0 {
		stride = 1
	}
	n := 0
	var walk func(dir uint64, prefix string, level int)
	walk = func(dir uint64, prefix string, level int) {
		if level == e18Levels {
			for s := 0; s < e18SegsPerLeaf; s++ {
				name := fmt.Sprintf("s%d", s)
				if _, err := h.Create(e18Who, e18Self, dir, name,
					fs.CreateOptions{Kind: fs.KindSegment, Label: e18Self}); err != nil {
					panic(err)
				}
				if n%stride == 0 {
					paths = append(paths, prefix+">"+name)
				}
				n++
			}
			return
		}
		for d := 0; d < e18Fanout; d++ {
			name := fmt.Sprintf("d%d", d)
			uid, err := h.Create(e18Who, e18Self, dir, name,
				fs.CreateOptions{Kind: fs.KindDirectory, Label: e18Self})
			if err != nil {
				panic(err)
			}
			walk(uid, prefix+">"+name, level+1)
		}
	}
	walk(fs.RootUID, "", 0)
	return paths, n
}

// e18ResolveAll resolves every path once and returns the wall time.
func e18ResolveAll(h *fs.Hierarchy, paths []string) time.Duration {
	start := time.Now()
	for _, p := range paths {
		if _, err := h.ResolvePath(e18Who, e18Self, p); err != nil {
			panic(fmt.Sprintf("resolve %q: %v", p, err))
		}
	}
	return time.Since(start)
}

// e18SweepResult is one revocation sweep's outcome: a transcript digest
// folded in target order and the count of stale decisions observed —
// allows after revocation, resolutions after deletion. Mismatches must be
// zero: a nonzero count means a cache served revoked authority.
type e18SweepResult struct {
	Digest     string
	Mismatches int
	Targets    int
}

// e18RevocationSweep drives the full revoke/re-grant/delete/recreate cycle
// against every target in turn. Each target is an independent
// directory+segment pair; the per-target transcript records outcomes
// (allowed, denied, resolved, absent), never raw UIDs.
func e18RevocationSweep(h *fs.Hierarchy, dirs, segsPerDir int) e18SweepResult {
	reader := fs.Principal{Person: "Reader", Project: "SDC", Tag: "a"}
	readerPat := acl.Pattern{Person: "Reader", Project: "SDC", Tag: acl.Wildcard}
	anyPat := acl.Pattern{Person: acl.Wildcard, Project: acl.Wildcard, Tag: acl.Wildcard}

	type target struct {
		dirUID uint64
		name   string
		path   string
	}
	var targets []target
	for d := 0; d < dirs; d++ {
		dname := fmt.Sprintf("r%d", d)
		dirUID, err := h.Create(e18Who, e18Self, fs.RootUID, dname,
			fs.CreateOptions{Kind: fs.KindDirectory, Label: e18Self})
		if err != nil {
			panic(err)
		}
		if err := h.SetACL(e18Who, e18Self, dirUID, anyPat, acl.ModeStatus); err != nil {
			panic(err)
		}
		for s := 0; s < segsPerDir; s++ {
			sname := fmt.Sprintf("t%d", s)
			uid, err := h.Create(e18Who, e18Self, dirUID, sname,
				fs.CreateOptions{Kind: fs.KindSegment, Label: e18Self})
			if err != nil {
				panic(err)
			}
			if err := h.SetACL(e18Who, e18Self, uid, readerPat, acl.ModeRead); err != nil {
				panic(err)
			}
			targets = append(targets, target{dirUID: dirUID, name: sname,
				path: fs.JoinPath(dname, sname)})
		}
	}

	fold := sha256.New()
	mismatches := 0
	for _, tg := range targets {
		var b strings.Builder
		note := func(op string, ok bool) {
			fmt.Fprintf(&b, "%s %s %v\n", tg.path, op, ok)
		}
		check := func() bool {
			uid, err := h.ResolvePath(reader, e18Self, tg.path)
			if err != nil {
				return false
			}
			_, err = h.CheckSegmentAccess(reader, e18Self, uid, acl.ModeRead)
			return err == nil
		}
		// Warm the path cache, twice, so the second pass is served from it.
		note("warm1", check())
		note("warm2", check())
		// Revoke: the very next access must deny. A stale allow is the
		// failure E18 exists to rule out.
		uid, _ := h.ResolvePath(reader, e18Self, tg.path)
		if err := h.SetACL(e18Who, e18Self, uid, readerPat, 0); err != nil {
			panic(err)
		}
		allowed := check()
		note("after-revoke", allowed)
		if allowed {
			mismatches++
		}
		// Re-grant: visible immediately (denials are never cached).
		if err := h.SetACL(e18Who, e18Self, uid, readerPat, acl.ModeRead); err != nil {
			panic(err)
		}
		note("after-regrant", check())
		// Delete: the cached path must not keep resolving.
		if err := h.Delete(e18Who, e18Self, tg.dirUID, tg.name); err != nil {
			panic(err)
		}
		_, err := h.ResolvePath(reader, e18Self, tg.path)
		note("after-delete", err == nil)
		if err == nil {
			mismatches++
		}
		// Recreate under the same name: the fresh object must be served,
		// not the dead one's cached UID.
		fresh, err := h.Create(e18Who, e18Self, tg.dirUID, tg.name,
			fs.CreateOptions{Kind: fs.KindSegment, Label: e18Self})
		if err != nil {
			panic(err)
		}
		if err := h.SetACL(e18Who, e18Self, fresh, readerPat, acl.ModeRead); err != nil {
			panic(err)
		}
		got, err := h.ResolvePath(reader, e18Self, tg.path)
		note("recreate-resolves-fresh", err == nil && got == fresh)
		if err != nil || got != fresh {
			mismatches++
		}
		sum := sha256.Sum256([]byte(b.String()))
		fold.Write([]byte(hex.EncodeToString(sum[:])))
	}
	return e18SweepResult{
		Digest:     hex.EncodeToString(fold.Sum(nil)),
		Mismatches: mismatches,
		Targets:    len(targets),
	}
}

// E18Fixture builds the full E18 tree — the million-plus-segment
// hierarchy — and returns it with the sampled deep paths and the segment
// count. Shared by E18HierarchyScale and BenchmarkE18PathResolution so
// the benchmark asserts the >=10x claim against the same population the
// experiment reports.
func E18Fixture() (*fs.Hierarchy, []string, int) {
	h := e18NewHierarchy(4096)
	paths, segments := e18Build(h)
	return h, paths, segments
}

// E18HierarchyScale regenerates the ROADMAP item-4 claim: at a
// million-plus segments, cached tree-name resolution beats the paper's
// per-component walk by an order of magnitude, while the path cache remains
// incapable of serving revoked authority, with a transcript digest
// identical to an uncached run's.
func E18HierarchyScale() Report {
	buildStart := time.Now()
	h, paths, segments := E18Fixture()
	buildTime := time.Since(buildStart)

	// The fixture is a ~1.5M-object pointer-dense heap; a background GC
	// cycle marking it steals most of a small machine's CPU mid-pass and
	// skews either phase by 3x. Finish one collection now, then set the
	// trigger high enough that the rounds (whose only allocation is the
	// per-round cache refill) never start another.
	defer debug.SetGCPercent(debug.SetGCPercent(1000))
	runtime.GC()

	// Timing: the uncached walk and the warm cached resolution alternate
	// for e18Rounds rounds and each phase keeps its minimum pass time. A
	// single pass per phase is hostage to whatever else the machine does
	// during those milliseconds — measured skews of 3x from neighbor load
	// are real — and interleaving plus min-of-rounds gives both phases
	// their least-interference estimate under the same conditions.
	uncached, cached := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < e18Rounds; r++ {
		h.SetCacheEnabled(false)
		if d := e18ResolveAll(h, paths); d < uncached {
			uncached = d
		}
		// Disabling flushed the cache; re-warm (untimed), then measure.
		h.SetCacheEnabled(true)
		e18ResolveAll(h, paths)
		if d := e18ResolveAll(h, paths); d < cached {
			cached = d
		}
	}
	ratio := float64(uncached) / float64(cached)
	cs := h.CacheStats()

	// Revocation sweeps on fresh hierarchies, cached and uncached: the
	// digests must agree and neither sweep may observe a stale decision.
	swCached := e18RevocationSweep(e18NewHierarchy(1024), 32, 4)
	hUncached := e18NewHierarchy(1024)
	hUncached.SetCacheEnabled(false)
	swUncached := e18RevocationSweep(hUncached, 32, 4)
	digestsEqual := swCached.Digest == swUncached.Digest
	noStale := swCached.Mismatches == 0 && swUncached.Mismatches == 0

	var b strings.Builder
	fmt.Fprintf(&b, "tree: %d levels x fanout %d, %d segments (built in %v)\n",
		e18Levels, e18Fanout, segments, buildTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-40s %12s %14s\n", "resolution of "+fmt.Sprint(len(paths))+" deep paths", "total", "per resolve")
	fmt.Fprintf(&b, "%-40s %12v %14v\n", "uncached per-component walk", uncached.Round(time.Millisecond),
		(uncached / time.Duration(len(paths))).Round(time.Nanosecond))
	fmt.Fprintf(&b, "%-40s %12v %14v\n", "cached (warm path prefix)", cached.Round(time.Millisecond),
		(cached / time.Duration(len(paths))).Round(time.Nanosecond))
	fmt.Fprintf(&b, "speedup: %.1fx (must be >= 10)\n", ratio)
	fmt.Fprintf(&b, "path cache: %d hits / %d misses / %d fills\n",
		cs.PathHits, cs.PathMisses, cs.PathFills)
	fmt.Fprintf(&b, "revocation sweep (%d targets): stale decisions cached=%d uncached=%d\n",
		swCached.Targets, swCached.Mismatches, swUncached.Mismatches)
	fmt.Fprintf(&b, "sweep digests identical, cached and uncached: %v (%s)\n",
		digestsEqual, swCached.Digest[:16])

	pass := segments >= 1000000 && ratio >= 10 && digestsEqual && noStale
	return Report{
		PaperClaim: "every segment reference is mediated by the hierarchy's ACLs — the paper pays a full " +
			"directory walk with per-component ACL evaluation per access, and argues correctness must not " +
			"depend on caching: revoked access must take effect immediately",
		Table: b.String(),
		Measured: fmt.Sprintf("%d segments; cached resolution %.1fx faster than the per-component walk "+
			"(%v vs %v per resolve); 0 stale decisions across %d revocation cycles, "+
			"digest identical to the uncached run",
			segments, ratio, (cached / time.Duration(len(paths))).Round(time.Nanosecond),
			(uncached / time.Duration(len(paths))).Round(time.Nanosecond), swCached.Targets),
		Pass: pass,
	}
}
