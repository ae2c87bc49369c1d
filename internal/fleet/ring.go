package fleet

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash router: each member contributes a fixed
// number of virtual points on a 64-bit hash circle, and a key maps to
// the member owning the first point at or after the key's hash. The
// properties the fleet needs are exactly the classic ones:
//
//   - stability: the same (person, project) always lands on the same
//     kernel, across runs and across processes, because the hash is a
//     pure FNV-1a over the key bytes — no map iteration, no math/rand;
//   - bounded imbalance: with enough virtual points per member the
//     session population splits close to evenly (tested at 1/4/16);
//   - remap minimality: adding or removing one member moves only the
//     keys in the arcs that member gains or loses (~1/N of the space),
//     never reshuffling the rest — which is what keeps a fleet resize
//     from turning into a full-fleet migration storm.
//
// Ring is not goroutine-safe; the fleet mutates it only at construction
// and resize, under its own lock.
type Ring struct {
	members map[int]bool
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int
}

// replicas is the virtual-point count per member: enough for the
// 16-kernel imbalance bound without making resizes expensive.
const replicas = 128

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{members: make(map[int]bool)}
}

// fnv64 is FNV-1a over s with an avalanche finalizer: the same
// deterministic hash discipline the fault plane uses for
// schedule-independent decisions. Raw FNV clusters badly on short,
// similar strings (exactly what vnode labels and principals are), which
// skews the arc lengths; the 64-bit mix spreads the points uniformly.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts a member and its virtual points.
func (r *Ring) Add(member int) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for v := 0; v < replicas; v++ {
		r.points = append(r.points, ringPoint{
			hash:   fnv64(fmt.Sprintf("member-%d/vnode-%d", member, v)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
}

// Remove deletes a member and its virtual points; keys in its arcs fall
// through to the next member on the circle.
func (r *Ring) Remove(member int) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Members returns the current member count.
func (r *Ring) Members() int { return len(r.members) }

// Lookup maps a key to its owning member. The ring must be non-empty.
func (r *Ring) Lookup(key string) int {
	if len(r.points) == 0 {
		panic("fleet: lookup on empty ring")
	}
	h := fnv64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point on the circle
	}
	return r.points[i].member
}

// SessionKey is the routing key of a session principal: (person,
// project) maps stably to one kernel.
func SessionKey(person, project string) string { return person + "." + project }
