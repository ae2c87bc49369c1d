package trace

import (
	"sync"
	"testing"
)

func TestRingKeepsNewestAfterWrap(t *testing.T) {
	r := NewRing(16)
	const total = 40
	for i := 0; i < total; i++ {
		r.Record(Event{Name: "e", Arg: uint64(i)})
	}
	if got := r.Written(); got != total {
		t.Fatalf("Written = %d, want %d (overwritten events count too)", got, total)
	}
	snap := r.Snapshot()
	if len(snap) != r.Cap() {
		t.Fatalf("snapshot holds %d events, want Cap() = %d", len(snap), r.Cap())
	}
	for i, ev := range snap {
		want := uint64(total - r.Cap() + i)
		if ev.Seq != want || ev.Arg != want {
			t.Fatalf("snapshot[%d] = seq %d arg %d, want the newest events in order (seq %d)", i, ev.Seq, ev.Arg, want)
		}
	}
}

func TestRingRoundsCapacityUp(t *testing.T) {
	for _, c := range []struct{ size, want int }{{0, 16}, {16, 16}, {17, 32}, {100, 128}} {
		if got := NewRing(c.size).Cap(); got != c.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestRingDropsWhenNilOrDisabled(t *testing.T) {
	t.Run("nil", func(t *testing.T) {
		var r *Ring
		r.Record(Event{Name: "dropped"})
		r.SetEnabled(true)
		if r.Enabled() || r.Written() != 0 || r.Cap() != 0 || r.Snapshot() != nil {
			t.Error("nil ring recorded or reported state")
		}
	})
	t.Run("disabled", func(t *testing.T) {
		r := NewRing(16)
		r.SetEnabled(false)
		if r.Enabled() {
			t.Fatal("disabled ring reports enabled")
		}
		r.Record(Event{Name: "dropped"})
		if r.Written() != 0 || r.Snapshot() != nil {
			t.Fatalf("disabled ring kept an event: written %d", r.Written())
		}
		r.SetEnabled(true)
		r.Record(Event{Name: "kept"})
		if snap := r.Snapshot(); len(snap) != 1 || snap[0].Name != "kept" || snap[0].Seq != 0 {
			t.Fatalf("re-enabled ring snapshot = %+v, want one event at seq 0", snap)
		}
	})
}

func TestRingSnapshotBeforeFirstRecord(t *testing.T) {
	if snap := NewRing(64).Snapshot(); snap != nil {
		t.Fatalf("fresh ring snapshot = %v, want nil", snap)
	}
}

// TestRingConcurrentRecord has 8 goroutines claim slots at once. Every
// claim must be counted and, once the writers are done, every slot that
// was written holds exactly one event with a distinct sequence number.
// Run under -race -count=10.
func TestRingConcurrentRecord(t *testing.T) {
	const writers = 8
	for _, c := range []struct {
		name      string
		perWriter int
	}{{"below-cap", 4}, {"wrapped", 500}} {
		t.Run(c.name, func(t *testing.T) {
			r := NewRing(64)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < c.perWriter; i++ {
						r.Record(Event{Stage: StageSched, Subject: uint64(w), Arg: uint64(i)})
					}
				}(w)
			}
			wg.Wait()

			total := writers * c.perWriter
			if got := r.Written(); got != uint64(total) {
				t.Fatalf("Written = %d, want %d", got, total)
			}
			want := total
			if want > r.Cap() {
				want = r.Cap()
			}
			snap := r.Snapshot()
			if len(snap) != want {
				t.Fatalf("snapshot holds %d events, want %d", len(snap), want)
			}
			seen := make(map[uint64]bool, len(snap))
			for i, ev := range snap {
				if ev.Seq >= uint64(total) || seen[ev.Seq] {
					t.Fatalf("snapshot[%d] seq %d: out of range or repeated", i, ev.Seq)
				}
				if i > 0 && ev.Seq < snap[i-1].Seq {
					t.Fatalf("snapshot not in Seq order at %d", i)
				}
				seen[ev.Seq] = true
			}
		})
	}
}
