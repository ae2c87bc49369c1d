// Package cliutil is the shared flag-validation discipline of the
// repository's command-line drivers (loadgen, metricsdump, gateaudit, ckpt).
// Each driver declares its constraints as a table of Rules — predicate
// plus usage message — and turns the first violation into the uniform
// exit path: "<prog>: <message>" on stderr, the flag usage text, exit
// status 2. Contradictory flags are a usage error, not a workload;
// nothing half-configured ever reaches an engine.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

// Rule is one flag constraint: Bad marks a violation, Msg is the usage
// error shown for it. Messages are built eagerly (the table is cheap to
// construct relative to any run the flags configure).
type Rule struct {
	Bad bool
	Msg string
}

// AtLeast constrains an integer flag to a minimum, phrased the way the
// drivers phrase it: "-name v: need at least one <what>".
func AtLeast(name string, v, min int, what string) Rule {
	return Rule{Bad: v < min, Msg: fmt.Sprintf("-%s %d: need at least %s", name, v, what)}
}

// NonNegative constrains an integer flag to be >= 0.
func NonNegative(name string, v int) Rule {
	return Rule{Bad: v < 0, Msg: fmt.Sprintf("-%s %d: cannot be negative", name, v)}
}

// InRange constrains an integer flag to [lo, hi].
func InRange(name string, v, lo, hi int) Rule {
	return Rule{Bad: v < lo || v > hi, Msg: fmt.Sprintf("-%s %d: out of range %d..%d", name, v, lo, hi)}
}

// Probability constrains a float flag to [0, 1] and rejects NaN.
func Probability(name string, v float64) Rule {
	return Rule{Bad: v < 0 || v > 1 || v != v,
		Msg: fmt.Sprintf("-%s %v: must be a probability in [0, 1]", name, v)}
}

// FirstError returns the first violated rule's message as an error, or
// nil when every rule holds. Order matters: drivers list their rules
// from most to least fundamental so the user sees the root usage error.
func FirstError(rules ...Rule) error {
	for _, r := range rules {
		if r.Bad {
			return errors.New(r.Msg)
		}
	}
	return nil
}

// Exit2 is the drivers' uniform usage-error exit: prefix the error with
// the program name, print the flag usage, exit with status 2 (reserved
// for usage errors; runtime failures exit 1).
func Exit2(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	flag.Usage()
	osExit(2)
}

// osExit is swappable so tests can observe Exit2 without dying.
var osExit = os.Exit
