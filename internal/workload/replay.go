package workload

import (
	"errors"
	"fmt"
	"hash"

	"repro/internal/netattach"
)

// Tally is one session's request counters over a replay. Err, once set,
// ends the session's part in the replay: it sends and reads nothing
// more.
type Tally struct {
	Sent, Received, Throttled int64
	Err                       error
}

// Target is what Replay drives: one front-end for Run and RunWindow,
// every member of a fleet for fleet.Run.
type Target struct {
	// Conn returns session i's current connection.
	Conn func(i int) *netattach.Conn
	// Flush runs every serving kernel until quiescent, in member order.
	Flush func()
	// Burst, if set, runs once for every live session that fired this
	// round, in session order, after the round's replies are read. An
	// error ends the session.
	Burst func(i int) error
}

// Replay is the one session round loop. It walks the plan's round
// schedule on the caller's goroutine; in each round:
//
//  1. every live session whose next window is due sends that burst,
//     clipped to steps [lo, hi), back-to-back — nothing pumps the
//     scheduler here, so requests pile up in the kernel buffers (the
//     legacy rings overwrite, the S5 infinite buffers grow);
//  2. the target flushes;
//  3. every live session reads its replies into hashes[i];
//  4. the target's Burst hook, if set, runs for every session that fired.
//
// A round in which no session fires runs none of the last three steps.
// The order of every front-end call is a function of the plan alone, so
// virtual time is too. Counters and errors land in tallies[i]; a session
// whose Err is already set on entry takes no part.
func Replay(plan *Plan, lo, hi int, t Target, hashes []hash.Hash, tallies []Tally) {
	next := make([]int, len(plan.Scripts))
	fired := make([]bool, len(plan.Scripts))
	for round := 0; round < plan.Rounds; round++ {
		active := false
		for i := range plan.Scripts {
			fired[i] = false
			tl, ws := &tallies[i], plan.Windows[i]
			if tl.Err != nil || next[i] >= len(ws) || ws[next[i]].Round != round {
				continue
			}
			w := ws[next[i]]
			next[i]++
			base, top := max(w.Lo, lo), min(w.Hi, hi)
			if base >= top {
				continue
			}
			fired[i], active = true, true
			c := t.Conn(i)
			for s := base; s < top; s++ {
				st := plan.Scripts[i].Steps[s]
				err := c.Send(st.Op, st.Arg)
				switch {
				case err == nil:
					tl.Sent++
				case errors.Is(err, netattach.ErrThrottled):
					tl.Throttled++
				default:
					tl.Err = fmt.Errorf("workload: send %d/%d: %w", i, s, err)
				}
			}
		}
		if !active {
			continue
		}
		t.Flush()
		for i := range plan.Scripts {
			tl := &tallies[i]
			if tl.Err != nil {
				continue
			}
			c := t.Conn(i)
			for {
				v, ok, err := c.TryRecv()
				if err != nil {
					tl.Err = fmt.Errorf("workload: recv %d: %w", i, err)
					break
				}
				if !ok {
					break
				}
				tl.Received++
				fmt.Fprintf(hashes[i], "%d %d\n", i, v)
			}
		}
		if t.Burst == nil {
			continue
		}
		for i := range plan.Scripts {
			if fired[i] && tallies[i].Err == nil {
				if err := t.Burst(i); err != nil {
					tallies[i].Err = err
				}
			}
		}
	}
}
