package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/netattach"
	"repro/multics"
)

// stormScripts deterministically generates the classic storm's scripts:
// conns sessions of steps requests over users accounts, from one shared
// math/rand stream seeded by seed and walked in session order, with
// echo/sum/spin steps whose every reply is a pure function of its
// arguments. The Stormer persona routes through this generator, which is
// what keeps pre-scenario seeds producing the same transcript digests
// they always did. It is the one math/rand stream in the persona and
// replay sources, so this file is the one scripts/check.sh's
// replay-determinism lint leaves off its list.
func stormScripts(conns, steps, users int, seed int64) []Script {
	rng := rand.New(rand.NewSource(seed))
	scripts := make([]Script, conns)
	for i := range scripts {
		u := i % users
		s := Script{
			Person:   fmt.Sprintf("Load%d", u),
			Project:  "Traffic",
			Password: fmt.Sprintf("storm%d pw", u),
			Level:    multics.Secret,
			Steps:    make([]Step, steps),
		}
		for j := range s.Steps {
			switch rng.Intn(3) {
			case 0:
				s.Steps[j] = Step{netattach.OpEcho, rng.Uint64() & netattach.PayloadMask}
			case 1:
				s.Steps[j] = Step{netattach.OpSum, uint64(rng.Intn(1 << 20))}
			default:
				s.Steps[j] = Step{netattach.OpSpin, uint64(rng.Intn(256))}
			}
		}
		scripts[i] = s
	}
	return scripts
}
