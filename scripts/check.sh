#!/bin/sh
# Repository gate: check formatting, vet everything, then run the full
# test suite under the race detector. CI and pre-commit both call this.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
# Every Go source file is gofmt-clean; the gate lists the files that are
# not. The benchmark's build directory (.bench_build, git-ignored) holds
# no source and is skipped.
unformatted=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists files that need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== gate-registration lint"
# Gate tables are declarative and live in internal/core only: no other
# package may register gates behind the spine's back. (internal/gate is
# the registry implementation itself and its tests.) Heuristic: a file
# that imports repro/internal/gate and calls .Register(/MustRegister( is
# registering gates; other Register methods (e.g. the interrupt
# controller's) don't trip it because those files don't import gate.
bad=""
for f in $(grep -rl 'MustRegister(\|\.Register(' --include='*.go' internal/ cmd/ multics/ 2>/dev/null |
	grep -v '^internal/core/' | grep -v '^internal/gate/' || true); do
	if grep -q '"repro/internal/gate"' "$f"; then
		bad="$bad
$(grep -n 'MustRegister(\|\.Register(' "$f" | sed "s|^|$f:|")"
	fi
done
if [ -n "$bad" ]; then
	echo "gate registration outside internal/core:$bad" >&2
	exit 1
fi

echo "== fault-event construction lint"
# Injected-fault trace events (trace.StageInject) are constructed in one
# place: the fault plane's injector. Any other package referring to
# StageInject is either forging injected events or depending on the
# plane's internals — both are wrong. The spine deliberately does not
# alias StageInject into internal/gate, so a mention outside the trace
# spine and internal/faults is always a violation.
bad=""
for f in $(grep -rl 'StageInject' --include='*.go' internal/ cmd/ multics/ examples/ ./*.go 2>/dev/null |
	grep -v '^internal/trace/' | grep -v '^internal/faults/' || true); do
	bad="$bad
$(grep -n 'StageInject' "$f" | sed "s|^|$f:|")"
done
if [ -n "$bad" ]; then
	echo "StageInject referenced outside internal/trace + internal/faults:$bad" >&2
	exit 1
fi

echo "== single-driver lint"
# One goroutine at a time drives a kernel — a multics.System and
# everything it owns — and the scheduler's coroutine switch is the only
# synchronisation inside it (DESIGN.md, "One driver per kernel").
# Parallelism comes from running separate kernels, which share nothing.
# So no non-test source imports sync or sync/atomic; go test -race
# checks the same contract at run time. There is no allowlist.
bad=$(grep -rnE '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_.]+[[:space:]]+)?"sync(/atomic)?"' \
	--include='*.go' internal/ cmd/ multics/ examples/ ./*.go 2>/dev/null |
	grep -v '_test\.go:' || true)
if [ -n "$bad" ]; then
	echo "sync or sync/atomic imported outside tests (one driver per kernel; see DESIGN.md):" >&2
	echo "$bad" >&2
	exit 1
fi

echo "== fleet-isolation lint"
# The fleet composes member kernels only through their public surfaces:
# the multics facade, the netattach front-end, and Kernel.Services().
# Importing deeper kernel packages (machine, mem, fs, sched, gate
# internals...) from internal/fleet would couple the fleet to kernel
# internals and bypass the facade discipline. Allowed imports are the
# composition surfaces plus the leaf planes the fleet reports through.
bad=""
for f in internal/fleet/*.go; do
	while IFS= read -r imp; do
		case "$imp" in
		repro/multics | repro/internal/core | repro/internal/netattach | \
			repro/internal/workload | repro/internal/metrics | \
			repro/internal/trace | repro/internal/faults) ;;
		# mem is boot-time configuration only (core.Config.Mem), the same
		# surface workload.Boot parameterizes; it is not a runtime reach-in.
		repro/internal/mem) ;;
		repro/*)
			bad="$bad
$f: imports $imp"
			;;
		esac
	done <<-EOF
	$(sed -n 's/^[[:space:]]*"\(repro\/[^"]*\)"$/\1/p' "$f")
	EOF
done
if [ -n "$bad" ]; then
	echo "internal/fleet reaching past the kernel composition surfaces:$bad" >&2
	exit 1
fi

echo "== data-path os-import lint"
# Every byte the kernel persists flows through mem.BackingStore, and the
# only package allowed to touch the host OS for data-path I/O is the
# durable implementation behind it: internal/blockstore. An "os" import
# in any storage-stack package above it means bytes are escaping the
# journal's torn-write/replay discipline. (cmd/* binaries may use os for
# flags and exit codes; they are drivers, not the data path.)
bad=""
for f in $(grep -rl '"os"' --include='*.go' \
	internal/mem/ internal/pagectl/ internal/fs/ internal/core/ \
	internal/iosys/ internal/machine/ internal/boot/ internal/kst/ \
	internal/workload/ multics/ 2>/dev/null | grep -v '_test\.go$' || true); do
	bad="$bad
$f"
done
if [ -n "$bad" ]; then
	echo "os imported in a data-path package above blockstore (all bytes flow through BackingStore):$bad" >&2
	exit 1
fi

echo "== trace-alias lint"
# The gate.Trace*/gate.Stage* compatibility aliases are deleted: the
# trace spine has one set of names, in repro/internal/trace. Any file
# spelling the old names is depending on a surface that no longer
# exists (or worse, re-growing it).
bad=""
for f in $(grep -rl 'gate\.Trace\(Event\|Ring\|Sink\|Stage\)\|gate\.NewTraceRing\|gate\.Stage\(Gate\|Fault\|Sched\|Net\)' \
	--include='*.go' internal/ cmd/ multics/ examples/ ./*.go 2>/dev/null || true); do
	bad="$bad
$(grep -n 'gate\.Trace\|gate\.NewTraceRing\|gate\.Stage' "$f" | sed "s|^|$f:|")"
done
if [ -n "$bad" ]; then
	echo "deleted gate.Trace*/gate.Stage* aliases referenced (use repro/internal/trace):$bad" >&2
	exit 1
fi

echo "== replay-determinism lint"
# Every persona decision must be a pure seeded hash, and one goroutine
# must drive every replay, or digests drift with kernel count and
# virtual time drifts from run to run. The persona sources and the
# replay engine (the round loop and its three callers' files) therefore
# may not read the wall clock (time.Now), import math/rand or start
# goroutines. storm.go alone stays off the list: stormScripts walks the
# classic storm's seeded math/rand stream, which the Stormer persona must
# reproduce byte for byte. A listed file that does not exist fails the
# lint, so a rename cannot switch the rule off.
bad=""
for f in internal/workload/persona.go internal/workload/scenario.go \
	internal/workload/replay.go internal/workload/transcript.go \
	internal/workload/workload.go internal/fleet/run.go; do
	if [ ! -f "$f" ]; then
		echo "replay-determinism lint: $f not found" >&2
		exit 1
	fi
	hits=$(grep -n 'time\.Now\|math/rand\|^\s*go \|[^a-zA-Z]go func' "$f" || true)
	if [ -n "$hits" ]; then
		bad="$bad
$(printf '%s' "$hits" | sed "s|^|$f:|")"
	fi
done
if [ -n "$bad" ]; then
	echo "nondeterminism in persona or replay sources (wall clock / rand / goroutine):$bad" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== journal replay fuzz (FuzzReplay, 20s)"
# Replay parses bytes a crash (or anything else) left on disk. The native
# fuzz target checks that no input panics, that every refusal is
# ErrCorrupt, and that every content span replay records lies inside the
# kept bytes and hashes to its address. Its seeds also run in the suite.
go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 20s ./internal/blockstore

echo "== request-word fuzz (FuzzRequestWords, 10s)"
# Every word a client sends reaches the front-end's decoder and a worker.
# The native fuzz target sends arbitrary words at S0 and S6 and checks
# that no input panics, that each one is processed, and that each op
# that answers gets exactly its reply, in order. Its seeds also run in
# the suite.
go test -run '^$' -fuzz '^FuzzRequestWords$' -fuzztime 10s ./internal/netattach

echo "== scheduler oracle fuzz (FuzzRunMatchesStep, 10s)"
# Run may take a sleeper's next two decisions in place, without a
# coroutine switch. The native fuzz target plays scripts of sleeping,
# yielding, blocking, waking, timed and draining processes under Run and
# under bare Steps, and checks that both leave byte-identical logs:
# dispatch events, clocks, process and VP accounting, and counters. Its
# seeds also run in the suite.
go test -run '^$' -fuzz '^FuzzRunMatchesStep$' -fuzztime 10s ./internal/sched

echo "== bench smoke (go test -bench E14 -benchtime 1x)"
go test -run '^$' -bench E14 -benchtime 1x .

echo "== experiments (E1..E21, A1 and A2 must all match the paper's shapes)"
# The command exits 1 when any report's Pass is false. Each Pass already
# includes that experiment's digest-identity, determinism and survival
# conditions, so nothing here greps the printed text.
go run ./cmd/experiments

echo "ok"
