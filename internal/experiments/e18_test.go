package experiments

import "testing"

// The deterministic half of E18, kept in the tier-1 test suite: no stale
// ACL decision or stale prefix is ever honored after SetACL/Delete, and
// the cached sweep's outcome transcript is identical to an uncached
// twin's.
func TestE18RevocationSweepCachedMatchesUncached(t *testing.T) {
	const dirs, segs = 16, 4
	cached := e18RevocationSweep(e18NewHierarchy(1024), dirs, segs)
	hUncached := e18NewHierarchy(1024)
	hUncached.SetCacheEnabled(false)
	uncached := e18RevocationSweep(hUncached, dirs, segs)

	for _, sw := range []struct {
		name string
		res  e18SweepResult
	}{
		{"cached", cached}, {"uncached", uncached},
	} {
		if sw.res.Mismatches != 0 {
			t.Errorf("%s: %d stale decisions honored", sw.name, sw.res.Mismatches)
		}
		if sw.res.Targets != dirs*segs {
			t.Errorf("%s: swept %d targets, want %d", sw.name, sw.res.Targets, dirs*segs)
		}
	}
	if cached.Digest != uncached.Digest {
		t.Errorf("cached sweep digest %s differs from uncached twin %s: caches changed observable behavior",
			cached.Digest[:16], uncached.Digest[:16])
	}
}
