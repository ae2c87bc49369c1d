package gate

import (
	"errors"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Error is a classified gate error. Error() returns the underlying
// message verbatim — classification adds metadata, never rewrites the
// text — so existing callers that match on message content keep working.
type Error struct {
	// Gate is the gate name, when known.
	Gate string
	// Class is the taxonomy bucket.
	Class trace.Class
	// Err is the underlying error.
	Err error
}

func (e *Error) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// BadArgs wraps err as an argument-validation failure.
func BadArgs(gate string, err error) error {
	return &Error{Gate: gate, Class: trace.ClassBadArgs, Err: err}
}

// AccessDenied wraps err as a reference-monitor refusal.
func AccessDenied(gate string, err error) error {
	return &Error{Gate: gate, Class: trace.ClassAccessDenied, Err: err}
}

// Malfunction wraps err as a supervisor malfunction.
func Malfunction(gate string, err error) error {
	return &Error{Gate: gate, Class: trace.ClassMalfunction, Err: err}
}

// Classify maps an arbitrary error from a gate call into the spine's
// trace.Class taxonomy. The vocabulary lives in the leaf trace package;
// the classifier lives here because it knows the machine and mem error
// shapes. Explicitly classified errors (*Error anywhere in the chain) win;
// machine faults and mem storage-reference errors are recognized
// structurally; every other failure is trace.ClassFailed.
func Classify(err error) trace.Class {
	if err == nil {
		return trace.ClassOK
	}
	var ge *Error
	if errors.As(err, &ge) {
		return ge.Class
	}
	var f *machine.Fault
	if errors.As(err, &f) {
		switch f.Class {
		case machine.FaultAccess, machine.FaultRing, machine.FaultGate:
			return trace.ClassAccessDenied
		}
		return trace.ClassFailed
	}
	// Storage-reference errors from mem.PagedBacking.locate: an offset
	// outside the segment is the caller's malformed argument; a reference
	// through a deleted segment is a kernel-side failure (explicit here so
	// the bucketing is a decision, not a fallthrough).
	if errors.Is(err, mem.ErrOutOfRange) {
		return trace.ClassBadArgs
	}
	if errors.Is(err, mem.ErrSegmentGone) {
		return trace.ClassFailed
	}
	return trace.ClassFailed
}
