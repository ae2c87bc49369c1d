// Path-prefix resolution cache.
//
// ResolvePath on a deep tree pays one directory lookup plus one cached (or
// full) access check per component. The path cache memoizes resolved
// prefixes per (path, principal, subject-label): resolving >udd>a>b>c after
// >udd>a>b>d finds the >udd>a>b prefix cached and walks one component
// instead of four.
//
// Safety: each entry carries the complete chain of objects the original
// walk relied on — every directory whose ACL was checked and whose entry
// map was read, *including* directories reached while chasing interior
// links — with the ACL and entry generations observed at fill time. A hit
// is honored only if every step's generations are unchanged. Any
// SetACL/RemoveACL/Reclassify (aclGen) or Create/Delete/AddLink (entGen)
// anywhere along the chain makes the comparison fail, so a revoked or
// re-routed prefix is never served stale. Generations are
// loaded before the walk observes each object (see resolve.go), so a
// mutation racing the fill leaves a stillborn entry, not a stale one.
//
// Steady state is cheaper still: every generation bump also bumps one
// hierarchy-wide mutation epoch, and an entry whose fill-time epoch is
// still current skips the per-step scan entirely — in a read-dominated
// phase a cached resolution is one probe plus one atomic load, regardless
// of path depth. The epoch is purely an accelerator: an epoch mismatch
// falls back to the per-step generation checks, so unrelated mutations
// slow hits without evicting them, and the safety argument never rests on
// the epoch at all.
//
// Layout: entries are keyed in two levels — a small outer map from
// (principal, label) to that subject's view, then lock-striped inner maps
// keyed by the path string alone. Distinct subjects must never share
// entries (the verdict chain embeds their access rights), and the split
// means the per-probe cost is hashing one string, not a five-string
// composite: the subject view is fetched once per resolution and reused
// for every prefix probe and fill of the walk.
package fs

import (
	"sync"
	"sync/atomic"

	"repro/internal/acl"
	"repro/internal/metrics"
)

// subjKey identifies one subject's view of the hierarchy: the principal
// plus its mandatory label.
type subjKey struct {
	who   acl.Principal
	label string
}

// pathStep records one object the walk depended on and the generations
// under which it was observed.
type pathStep struct {
	obj    *Object
	aclGen uint64
	entGen uint64
}

// pathEntry is an immutable resolved prefix: the target UID plus the
// validation chain. steps is snapshot-copied at fill and never mutated.
type pathEntry struct {
	uid uint64
	// epoch is the hierarchy-wide mutation epoch loaded before the filling
	// walk observed anything. If the epoch is still current at lookup time,
	// no ACL, label, or entry mutated anywhere since before the fill, so
	// the whole chain is trivially valid and the per-step scan is skipped.
	epoch uint64
	steps []pathStep
}

// valid reports whether the entry may be honored. now is the current
// hierarchy mutation epoch: an exact match proves nothing mutated since
// before the fill (the O(1) steady-state fast path); otherwise every step's
// generations are re-checked individually, so unrelated mutations cost a
// scan but never evict, and relevant mutations are always detected.
func (e *pathEntry) valid(now uint64) bool {
	if now == e.epoch {
		return true
	}
	for i := range e.steps {
		s := &e.steps[i]
		if atomic.LoadUint64(&s.obj.aclGen) != s.aclGen ||
			atomic.LoadUint64(&s.obj.entGen) != s.entGen {
			return false
		}
	}
	return true
}

const (
	pathShardCount = 16
	// pathShardCap is sized so a ~100k-path working set (E18 resolves a
	// 50k sample against a 1.1M-segment tree, with prefix fills on top)
	// stays resident.
	pathShardCap = 1 << 15
)

type pathShard struct {
	mu sync.RWMutex
	m  map[string]*pathEntry
}

// subjPaths is one subject's striped path → entry index.
type subjPaths struct {
	shards [pathShardCount]pathShard
}

func newSubjPaths() *subjPaths {
	sp := &subjPaths{}
	for i := range sp.shards {
		sp.shards[i].m = make(map[string]*pathEntry)
	}
	return sp
}

func (sp *subjPaths) shard(path string) *pathShard {
	// FNV-1a over the path's length and last 8 bytes: the tail is where
	// sibling paths differ, and bounding the scan keeps the shard pick
	// off the hit path's profile (the full-string hash happens once, in
	// the shard map itself).
	h := uint64(14695981039346656037) ^ uint64(len(path))
	h *= 1099511628211
	for i := len(path) - 8; i < len(path); i++ {
		if i < 0 {
			continue
		}
		h ^= uint64(path[i])
		h *= 1099511628211
	}
	return &sp.shards[h&(pathShardCount-1)]
}

type pathCache struct {
	mu sync.RWMutex
	// subjs has one entry per (principal, label) that ever resolved a
	// name — small and read-mostly; the per-path churn lives in the
	// subject views' inner shards.
	subjs   map[subjKey]*subjPaths
	enabled uint32 // atomic

	hits, misses, fills, invalidations, evictions *metrics.Counter
}

func newPathCache() *pathCache {
	return &pathCache{enabled: 1, subjs: make(map[subjKey]*subjPaths)}
}

func (c *pathCache) bind(reg *metrics.Registry) {
	c.hits = reg.Counter("fs.path_cache.hits")
	c.misses = reg.Counter("fs.path_cache.misses")
	c.fills = reg.Counter("fs.path_cache.fills")
	c.invalidations = reg.Counter("fs.path_cache.invalidations")
	c.evictions = reg.Counter("fs.path_cache.evictions")
}

func (c *pathCache) on() bool { return atomic.LoadUint32(&c.enabled) == 1 }

func (c *pathCache) setEnabled(on bool) {
	if on {
		atomic.StoreUint32(&c.enabled, 1)
	} else {
		atomic.StoreUint32(&c.enabled, 0)
		c.flush()
	}
}

func (c *pathCache) flush() {
	c.mu.Lock()
	c.subjs = make(map[subjKey]*subjPaths)
	c.mu.Unlock()
}

// view returns the subject's path index, or nil if this subject has never
// filled an entry. Probe-only callers take nil as an immediate miss.
func (c *pathCache) view(k subjKey) *subjPaths {
	c.mu.RLock()
	sp := c.subjs[k]
	c.mu.RUnlock()
	return sp
}

// viewOrCreate returns the subject's path index, creating it on first use.
func (c *pathCache) viewOrCreate(k subjKey) *subjPaths {
	if sp := c.view(k); sp != nil {
		return sp
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sp := c.subjs[k]; sp != nil {
		return sp
	}
	sp := newSubjPaths()
	c.subjs[k] = sp
	return sp
}

// lookup returns a valid cached entry for path in the subject view sp (nil
// sp = subject has no entries). now is the caller's pre-walk load of the
// hierarchy mutation epoch. An entry that fails generation validation is
// left in place — overwritten on the next fill — because deleting under
// the read path would force the write lock.
func (c *pathCache) lookup(sp *subjPaths, path string, now uint64) *pathEntry {
	if sp != nil {
		s := sp.shard(path)
		s.mu.RLock()
		e := s.m[path]
		s.mu.RUnlock()
		if e != nil && e.valid(now) {
			c.hits.Inc()
			return e
		}
	}
	c.misses.Inc()
	return nil
}

// store records a resolved prefix in the subject view. The entry's step
// generations were captured before each object was observed, so an
// interleaved mutation leaves it immediately invalid rather than stale.
func (c *pathCache) store(sp *subjPaths, path string, e *pathEntry) {
	s := sp.shard(path)
	s.mu.Lock()
	if len(s.m) >= pathShardCap {
		s.m = make(map[string]*pathEntry)
		c.evictions.Inc()
	}
	s.m[path] = e
	s.mu.Unlock()
	c.fills.Inc()
}
