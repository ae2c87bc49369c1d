package machine

import (
	"errors"
	"testing"

	"repro/internal/metrics"
)

// TestRevokedSDWNeverHonoredFromCache is the paper's security-correctness
// constraint on the associative memory: once a descriptor is revoked, no
// access may be granted from the stale cached decision. The cache is warmed
// deliberately before each revocation.
func TestRevokedSDWNeverHonoredFromCache(t *testing.T) {
	p, ds, reg := newCountingProc(UserRing, Model6180())
	mustSet(t, ds, 3, SDW{Backing: NewCoreBacking(8), Mode: ModeRead | ModeWrite, Brackets: UserBrackets(UserRing)})
	mustSet(t, ds, 4, SDW{Proc: echoProc(), Mode: ModeExecute, Brackets: GateBrackets(KernelRing, UserRing), Gates: 1})

	// Warm the cache: data and call decisions are now cached for ring 4.
	if err := p.Store(3, 0, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Load(3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Call(4, 0, nil); err != nil {
		t.Fatal(err)
	}
	if c := readAssoc(reg); c.hits == 0 {
		t.Fatalf("cache never hit during warm-up: %+v", c)
	}

	// Revoke both descriptors. Every subsequent reference must fault,
	// regardless of the decisions cached a moment ago.
	mustSet(t, ds, 3, SDW{Backing: NewCoreBacking(8), Mode: 0, Brackets: UserBrackets(UserRing)})
	ds.Clear(4)

	if _, err := p.Load(3, 0); err == nil {
		t.Fatal("load succeeded through revoked descriptor")
	}
	if err := p.Store(3, 0, 7); err == nil {
		t.Fatal("store succeeded through revoked descriptor")
	}
	if _, err := p.Call(4, 0, nil); err == nil {
		t.Fatal("call succeeded through cleared descriptor")
	}
	var f *Fault
	if _, err := p.Call(4, 0, nil); !errors.As(err, &f) || f.Class != FaultSegment {
		t.Fatalf("cleared descriptor call fault = %v, want segment fault", f)
	}
	if c := readAssoc(reg); c.invalidations == 0 {
		t.Errorf("revocation flushed no cache entries: %+v", c)
	}
}

// TestAssocInvalidationFlushesStaleEntries is the table-driven invalidation
// matrix required by the descriptor-mutation rule: revocation, ring-bracket
// narrowing, and segment deletion must each flush stale entries, while an
// unrelated descriptor mutation must leave the hot entry cached.
func TestAssocInvalidationFlushesStaleEntries(t *testing.T) {
	const seg, other = 3, 5
	cases := []struct {
		name   string
		mutate func(t *testing.T, ds *DescriptorSegment)
		// wantFault is the fault class the post-mutation load must raise;
		// FaultClass(-1) means the load must still succeed (from cache).
		wantFault FaultClass
	}{
		{
			name: "descriptor revocation",
			mutate: func(t *testing.T, ds *DescriptorSegment) {
				mustSet(t, ds, seg, SDW{Backing: NewCoreBacking(8), Mode: 0, Brackets: UserBrackets(UserRing)})
			},
			wantFault: FaultAccess,
		},
		{
			name: "ring-bracket narrowing",
			mutate: func(t *testing.T, ds *DescriptorSegment) {
				// Read bracket shrinks below the caller's ring: R2 = 2 < 4.
				mustSet(t, ds, seg, SDW{Backing: NewCoreBacking(8), Mode: ModeRead,
					Brackets: Brackets{R1: KernelRing, R2: SupervisorRing, R3: SupervisorRing}})
			},
			wantFault: FaultRing,
		},
		{
			name:      "segment deletion",
			mutate:    func(t *testing.T, ds *DescriptorSegment) { ds.Clear(seg) },
			wantFault: FaultSegment,
		},
		{
			name: "unrelated descriptor mutation keeps entry",
			mutate: func(t *testing.T, ds *DescriptorSegment) {
				mustSet(t, ds, other, SDW{Backing: NewCoreBacking(8), Mode: ModeRead, Brackets: UserBrackets(UserRing)})
			},
			wantFault: FaultClass(-1),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, ds, reg := newCountingProc(UserRing, Model6180())
			mustSet(t, ds, seg, SDW{Backing: NewCoreBacking(8), Mode: ModeRead, Brackets: UserBrackets(UserRing)})
			if _, err := p.Load(seg, 0); err != nil {
				t.Fatal(err)
			}
			before := readAssoc(reg)
			tc.mutate(t, ds)

			_, err := p.Load(seg, 0)
			if tc.wantFault == FaultClass(-1) {
				if err != nil {
					t.Fatalf("load after unrelated mutation faulted: %v", err)
				}
				after := readAssoc(reg)
				if after.hits != before.hits+1 {
					t.Errorf("expected a cache hit after unrelated mutation: before %+v after %+v", before, after)
				}
				return
			}
			var f *Fault
			if !errors.As(err, &f) || f.Class != tc.wantFault {
				t.Fatalf("load after mutation = %v, want fault class %v", err, tc.wantFault)
			}
			after := readAssoc(reg)
			if after.invalidations == before.invalidations {
				t.Errorf("mutation invalidated nothing: before %+v after %+v", before, after)
			}
		})
	}
}

// TestInvalidateSegFlushesEveryRing checks that invalidating a segment
// flushes its decisions cached for every ring, and only those.
func TestInvalidateSegFlushesEveryRing(t *testing.T) {
	inv := metrics.New().Counter("machine.assoc_invalidations")
	a := newAssocMemory(inv)
	sdw := &SDW{Backing: NewCoreBacking(8), Mode: ModeRead, Brackets: UserBrackets(NumRings - 1)}
	for _, r := range []Ring{KernelRing, UserRing, NumRings - 1} {
		a.fill(5, r, sdw)
	}
	a.fill(6, UserRing, sdw)
	a.InvalidateSeg(5)
	for r := Ring(0); r < NumRings; r++ {
		if a.lookup(5, r) != nil {
			t.Errorf("segment 5's entry for %v survived InvalidateSeg", r)
		}
	}
	if a.lookup(6, UserRing) == nil || a.Len() != 1 {
		t.Errorf("InvalidateSeg(5) left %d entries, want segment 6's one", a.Len())
	}
	if got := inv.Value(); got != 3 {
		t.Errorf("invalidations = %d, want 3", got)
	}
}

// TestAssocHitMissCounters pins the counter semantics: first reference
// misses and fills, repeats hit, and disabling the cache stops counting.
func TestAssocHitMissCounters(t *testing.T) {
	p, ds, reg := newCountingProc(UserRing, Model6180())
	mustSet(t, ds, 3, SDW{Backing: NewCoreBacking(8), Mode: ModeRead, Brackets: UserBrackets(UserRing)})

	for i := 0; i < 5; i++ {
		if _, err := p.Load(3, 0); err != nil {
			t.Fatal(err)
		}
	}
	c := readAssoc(reg)
	if c.misses != 1 || c.hits != 4 {
		t.Errorf("hits/misses = %d/%d, want 4/1", c.hits, c.misses)
	}

	p.SetAssocEnabled(false)
	before := readAssoc(reg)
	for i := 0; i < 3; i++ {
		if _, err := p.Load(3, 0); err != nil {
			t.Fatal(err)
		}
	}
	if after := readAssoc(reg); after.hits != before.hits || after.misses != before.misses {
		t.Errorf("disabled cache still counting: before %+v, after %+v", before, after)
	}
}

// TestAssocDisabledCostsFullWalk verifies the cache actually saves cycles:
// the same reference stream is cheaper with the associative memory on.
func TestAssocDisabledCostsFullWalk(t *testing.T) {
	run := func(enabled bool) int64 {
		p, ds, clk := newTestProc(UserRing, Model6180())
		p.SetAssocEnabled(enabled)
		mustSet(t, ds, 3, SDW{Backing: NewCoreBacking(8), Mode: ModeRead, Brackets: UserBrackets(UserRing)})
		start := clk.Now()
		for i := 0; i < 100; i++ {
			if _, err := p.Load(3, 0); err != nil {
				t.Fatal(err)
			}
		}
		return clk.Now() - start
	}
	on, off := run(true), run(false)
	if on >= off {
		t.Errorf("cached run cost %d cycles, uncached %d; cache should be cheaper", on, off)
	}
}

// TestAssocWritePathRespectsBrackets verifies a cached read decision never
// authorizes a write: the write bracket is checked on its own miss path.
func TestAssocWritePathRespectsBrackets(t *testing.T) {
	p, ds, _ := newTestProc(UserRing, Model6180())
	// Readable from ring 4 (R2=4) but writable only from ring 0 (R1=0).
	mustSet(t, ds, 3, SDW{Backing: NewCoreBacking(8), Mode: ModeRead | ModeWrite,
		Brackets: Brackets{R1: KernelRing, R2: UserRing, R3: UserRing}})
	if _, err := p.Load(3, 0); err != nil {
		t.Fatal(err)
	}
	var f *Fault
	if err := p.Store(3, 0, 1); !errors.As(err, &f) || f.Class != FaultRing {
		t.Fatalf("store from ring 4 = %v, want ring fault", err)
	}
	// And the failed write must not have poisoned the read decision.
	if _, err := p.Load(3, 0); err != nil {
		t.Fatal(err)
	}
}
