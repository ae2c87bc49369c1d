package workload

import (
	"crypto/sha256"
	"encoding"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"repro/internal/netattach"
	"repro/multics"
)

// Transcript is the resumable reply record of a windowed workload run:
// one running sha256 per connection plus the request counters. Because
// every reply is a pure function of its scripted request, the transcript
// after steps [0, n) is identical whether the run was uninterrupted or
// checkpointed, crashed, restored, and resumed — which is exactly the
// recovery witness E19 asserts. Snapshot serializes the hash states
// themselves (crypto hashes are binary-marshalable), so a restored
// transcript continues mid-stream without replaying old replies.
type Transcript struct {
	hs                        []hash.Hash
	sent, received, throttled int64
}

// NewTranscript returns an empty transcript for conns connections.
func NewTranscript(conns int) *Transcript {
	t := &Transcript{hs: make([]hash.Hash, conns)}
	for i := range t.hs {
		t.hs[i] = sha256.New()
	}
	return t
}

// transcriptWire is the snapshot encoding.
type transcriptWire struct {
	States    []string `json:"states"` // base64 per-connection hash states
	Sent      int64    `json:"sent"`
	Received  int64    `json:"received"`
	Throttled int64    `json:"throttled"`
}

// Snapshot serializes the transcript. Stash the result in a checkpoint
// manifest's Meta and the transcript survives the crash with the blocks.
func (t *Transcript) Snapshot() (string, error) {
	w := transcriptWire{Sent: t.sent, Received: t.received, Throttled: t.throttled}
	for i, h := range t.hs {
		m, ok := h.(encoding.BinaryMarshaler)
		if !ok {
			return "", fmt.Errorf("workload: hash state %d is not marshalable", i)
		}
		b, err := m.MarshalBinary()
		if err != nil {
			return "", fmt.Errorf("workload: marshaling hash state %d: %w", i, err)
		}
		w.States = append(w.States, base64.StdEncoding.EncodeToString(b))
	}
	out, err := json.Marshal(w)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// RestoreTranscript rebuilds a transcript from a Snapshot string.
func RestoreTranscript(data string) (*Transcript, error) {
	var w transcriptWire
	if err := json.Unmarshal([]byte(data), &w); err != nil {
		return nil, fmt.Errorf("workload: decoding transcript: %w", err)
	}
	t := &Transcript{sent: w.Sent, received: w.Received, throttled: w.Throttled}
	for i, s := range w.States {
		b, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return nil, fmt.Errorf("workload: transcript state %d: %w", i, err)
		}
		h := sha256.New()
		u, ok := h.(encoding.BinaryUnmarshaler)
		if !ok {
			return nil, fmt.Errorf("workload: sha256 state not unmarshalable")
		}
		if err := u.UnmarshalBinary(b); err != nil {
			return nil, fmt.Errorf("workload: restoring hash state %d: %w", i, err)
		}
		t.hs = append(t.hs, h)
	}
	return t, nil
}

// Digest folds the per-connection states and counters into the recovery
// witness. Non-destructive: the transcript can keep accumulating.
func (t *Transcript) Digest() string {
	h := sha256.New()
	for i, hc := range t.hs {
		fmt.Fprintf(h, "conn %d %x\n", i, hc.Sum(nil))
	}
	fmt.Fprintf(h, "sent %d received %d throttled %d\n", t.sent, t.received, t.throttled)
	return hex.EncodeToString(h.Sum(nil))
}

// Counts returns the transcript's request counters.
func (t *Transcript) Counts() (sent, received, throttled int64) {
	return t.sent, t.received, t.throttled
}

// RunWindow replays steps [lo, hi) of the scenario's scripted sessions
// against sys, folding every reply into tr. Connections are dialed fresh
// for the window and closed at its end — a window is a login session,
// which is why a restored system (whose sessions died with the crash)
// can resume at any window boundary. The reply values are pure functions
// of the scripted requests, so transcripts are identical across
// crash-restore. Replay drives the window exactly as it drives Run: each
// session fires the slices of its compiled burst windows that intersect
// [lo, hi), so personas with scripts shorter than the window simply sit
// the tail out.
func RunWindow(sys *multics.System, sc *Scenario, tr *Transcript, lo, hi int) error {
	plan, err := sc.Plan()
	if err != nil {
		return err
	}
	if lo < 0 || hi > plan.MaxSteps() || lo > hi {
		return fmt.Errorf("workload: window [%d, %d) outside script of %d steps", lo, hi, plan.MaxSteps())
	}
	if len(tr.hs) != len(plan.Scripts) {
		return fmt.Errorf("workload: transcript tracks %d connections, scenario has %d", len(tr.hs), len(plan.Scripts))
	}
	fe, err := frontend(sys, len(plan.Scripts))
	if err != nil {
		return err
	}
	scripts := plan.Scripts
	conns := make([]*netattach.Conn, len(scripts))
	for i, s := range scripts {
		c, err := fe.DialAsync(s.Person, s.Project, s.Password, s.Level)
		if err != nil {
			return fmt.Errorf("workload: dial %d: %w", i, err)
		}
		conns[i] = c
	}
	fe.Flush()
	for i, c := range conns {
		if c.State() != netattach.StateAttached {
			return fmt.Errorf("workload: connection %d not attached: %v (%v)", i, c.State(), c.Err())
		}
	}

	tallies := make([]Tally, len(conns))
	Replay(plan, lo, hi, Target{
		Conn:  func(i int) *netattach.Conn { return conns[i] },
		Flush: fe.Flush,
	}, tr.hs, tallies)
	for _, tl := range tallies {
		if tl.Err != nil {
			return tl.Err
		}
		tr.sent += tl.Sent
		tr.received += tl.Received
		tr.throttled += tl.Throttled
	}
	for i, c := range conns {
		if err := c.Close(); err != nil {
			return fmt.Errorf("workload: close %d: %w", i, err)
		}
	}
	return nil
}
