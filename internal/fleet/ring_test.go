package fleet

import (
	"fmt"
	"testing"
)

// ringKeys generates a deterministic population of session keys shaped
// like real principals.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = SessionKey(fmt.Sprintf("User%d", i), fmt.Sprintf("Proj%d", i%7))
	}
	return keys
}

// TestRingDistribution checks bounded imbalance at the fleet sizes E17
// runs: with 128 virtual points per member, no kernel owns more than
// twice its fair share of a large key population, and none starves.
func TestRingDistribution(t *testing.T) {
	const keyCount = 10000
	keys := ringKeys(keyCount)
	for _, n := range []int{1, 4, 16} {
		r := NewRing()
		for m := 0; m < n; m++ {
			r.Add(m)
		}
		counts := make([]int, n)
		for _, k := range keys {
			counts[r.Lookup(k)]++
		}
		fair := keyCount / n
		for m, c := range counts {
			if c > 2*fair {
				t.Errorf("n=%d: member %d owns %d keys, fair share %d (imbalance > 2x)", n, m, c, fair)
			}
			if c < fair/2 {
				t.Errorf("n=%d: member %d owns %d keys, fair share %d (starved)", n, m, c, fair)
			}
		}
	}
}

// TestRingStability checks that routing is a pure function: repeated
// lookups agree, and two independently built rings of the same size
// agree on every key.
func TestRingStability(t *testing.T) {
	build := func() *Ring {
		r := NewRing()
		for m := 0; m < 4; m++ {
			r.Add(m)
		}
		return r
	}
	a, b := build(), build()
	for _, k := range ringKeys(1000) {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("rings disagree on %q: %d vs %d", k, a.Lookup(k), b.Lookup(k))
		}
		if a.Lookup(k) != a.Lookup(k) {
			t.Fatalf("lookup of %q is not stable", k)
		}
	}
}

// TestRingRemapMinimality checks the consistent-hashing contract: adding
// a member moves only keys INTO the new member (roughly its fair share),
// and removing it restores the original mapping exactly.
func TestRingRemapMinimality(t *testing.T) {
	const keyCount = 10000
	keys := ringKeys(keyCount)
	r := NewRing()
	for m := 0; m < 8; m++ {
		r.Add(m)
	}
	before := make(map[string]int, keyCount)
	for _, k := range keys {
		before[k] = r.Lookup(k)
	}

	r.Add(8)
	moved := 0
	for _, k := range keys {
		now := r.Lookup(k)
		if now != before[k] {
			moved++
			if now != 8 {
				t.Fatalf("key %q moved %d -> %d, not to the new member", k, before[k], now)
			}
		}
	}
	fair := keyCount / 9
	if moved == 0 {
		t.Fatal("adding a member moved no keys")
	}
	if moved > 2*fair {
		t.Errorf("adding one member moved %d keys; fair share is %d (remap not minimal)", moved, fair)
	}

	r.Remove(8)
	for _, k := range keys {
		if got := r.Lookup(k); got != before[k] {
			t.Fatalf("after remove, key %q maps to %d, originally %d", k, got, before[k])
		}
	}
	if r.Members() != 8 {
		t.Fatalf("member count after add+remove: %d", r.Members())
	}
}

// TestRingRemoveFallthrough checks that a removed member's keys fall to
// surviving members and every key still resolves.
func TestRingRemoveFallthrough(t *testing.T) {
	r := NewRing()
	for m := 0; m < 4; m++ {
		r.Add(m)
	}
	r.Remove(2)
	for _, k := range ringKeys(1000) {
		if got := r.Lookup(k); got == 2 || got < 0 || got > 3 {
			t.Fatalf("key %q resolved to %d after removing member 2", k, got)
		}
	}
}
