package netattach_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/netattach"
	"repro/multics"
)

// FuzzRequestWords sends arbitrary request words from one connection
// through Send, a worker's read gate and execute, at S0 and at S6. The
// input is a run of big-endian words, so each word's op is its first
// byte; at most fuzzMaxWords are sent, in flushes of at most 16, so the
// legacy 16-slot buffers overwrite nothing. It checks that no input
// panics, that net.processed grows by one per word, and that every echo,
// sum, spin, clock and level word gets exactly one reply, in order, and
// any other op none: echo and spin reply with the payload, sum with the
// running sum mod 2^64, level with the login level, clock with any value.
func FuzzRequestWords(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var words []uint64
		for ; len(data) >= 8 && len(words) < fuzzMaxWords; data = data[8:] {
			words = append(words, binary.BigEndian.Uint64(data))
		}
		for _, stage := range []multics.Stage{multics.StageBaseline, multics.StageRestructured} {
			sendWords(t, stage, words)
		}
	})
}

// fuzzMaxWords bounds one input's requests. It leaves room for the 257
// maximal sums that wrap the running sum past 2^64.
const fuzzMaxWords = 512

// fuzzLevel is the level the fuzzed session logs in at, so a level
// request has a nonzero answer.
const fuzzLevel = multics.Confidential

// reply is the reply a request word should get; a clock reading may be
// any value.
type reply struct {
	v        uint64
	anyValue bool
}

// sendWords boots a kernel at stage, attaches one connection and sends
// words, checking every reply against the op each word carries.
func sendWords(t *testing.T, stage multics.Stage, words []uint64) {
	sys, err := multics.NewWithConfig(core.Config{Stage: stage})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	if err := sys.AddUser("Schroeder", "CSR", "multics75", multics.Secret); err != nil {
		t.Fatal(err)
	}
	fe, err := sys.Serve(netattach.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := fe.Dial("Schroeder", "CSR", "multics75", fuzzLevel)
	if err != nil {
		t.Fatal(err)
	}
	processed := sys.Kernel.Services().Metrics.Counter("net.processed")
	before := processed.Value()
	var sum uint64
	for start := 0; start < len(words); start += 16 {
		flush := words[start:min(start+16, len(words))]
		var want []reply
		for _, w := range flush {
			if err := c.Send(netattach.Decode(w)); err != nil {
				t.Fatalf("%v: send %#x: %v", stage, w, err)
			}
			switch op, payload := netattach.Decode(w); op {
			case netattach.OpEcho, netattach.OpSpin:
				want = append(want, reply{v: payload})
			case netattach.OpSum:
				sum += payload
				want = append(want, reply{v: sum})
			case netattach.OpLevel:
				want = append(want, reply{v: uint64(fuzzLevel)})
			case netattach.OpClock:
				want = append(want, reply{anyValue: true})
			}
		}
		fe.Flush()
		var got []uint64
		for {
			v, ok, err := c.TryRecv()
			if err != nil {
				t.Fatalf("%v: recv: %v", stage, err)
			}
			if !ok {
				break
			}
			got = append(got, v)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: words %#x got %d replies, want %d", stage, flush, len(got), len(want))
		}
		for i, r := range want {
			if !r.anyValue && got[i] != r.v {
				t.Fatalf("%v: words %#x: reply %d is %#x, want %#x", stage, flush, i, got[i], r.v)
			}
		}
	}
	if n := processed.Value() - before; n != int64(len(words)) {
		t.Fatalf("%v: net.processed grew by %d for %d words", stage, n, len(words))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
