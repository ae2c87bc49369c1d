#!/bin/sh
# Run the full benchmark suite and archive the results as structured JSON
# in BENCH_<commit>.json at the repository root, keyed by the short hash
# of HEAD, so perf regressions can be diffed across commits and two
# commits benchmarked on one day keep separate archives. Wall time,
# allocations, and the simulation's own metrics (vcycles/call,
# req/kvcycle, ...) are all captured. After archiving, a delta report
# compares ns/op against a baseline archive: the parent commit's when one
# exists, else the newest other archive.
#
# Usage: scripts/bench.sh [bench-regex]   (default: all benchmarks)
set -eu
cd "$(dirname "$0")/.."

pattern="${1:-.}"
out="BENCH_$(git rev-parse --short HEAD).json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Pick the delta baseline: the parent commit's archive if one exists,
# else the newest archive other than this commit's own: newest by the
# commit that added it, then by file time for archives never committed.
base=""
parent="$(git rev-parse --short HEAD^ 2>/dev/null || true)"
if [ -n "$parent" ] && [ -e "BENCH_$parent.json" ]; then
	base="BENCH_$parent.json"
else
	for f in $(git log --format= --name-only --diff-filter=A -- 'BENCH_*.json') \
		$(ls -t BENCH_*.json 2>/dev/null || true); do
		if [ "$f" != "$out" ] && [ -e "$f" ]; then
			base="$f"
			break
		fi
	done
fi

go test -run '^$' -bench "$pattern" -benchmem . | tee "$raw"

# Parse `BenchmarkName  iters  123 ns/op  45 B/op  6 allocs/op  7.0 unit`
# lines into one JSON object per benchmark.
awk '
BEGIN { print "[" ; first = 1 }
/^Benchmark/ {
    if (!first) print ","
    first = 0
    printf "  {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {", $1, $2
    sep = ""
    for (i = 3; i < NF; i += 2) {
        printf "%s\"%s\": %s", sep, $(i + 1), $i
        sep = ", "
    }
    print "}}"
}
END { print "]" }
' "$raw" > "$out"

echo "wrote $out"

# The metrics-plane overhead claim (≤1% virtual-cycle cost, expected 0)
# is worth surfacing next to the archive: pull the two E16 arms back out
# of the raw run when the pattern covered them.
e16=$(awk '
/^BenchmarkE16MetricsOverhead\/metrics-(on|off)/ {
    for (i = 3; i < NF; i += 2) if ($(i + 1) == "vcycles/call") {
        if ($1 ~ /metrics-on/) on = $i; else off = $i
    }
}
END {
    if (on != "" && off != "" && off + 0 > 0)
        printf "E16 metrics overhead: on %s off %s vcycles/call (%+.2f%%)", on, off, (on - off) / off * 100
}
' "$raw")
if [ -n "$e16" ]; then
	echo "$e16"
fi

# Same for the journaled page-out bound (≤2x the volatile store): both
# E19 arms land in the archive; restate the ratio beside it.
e19=$(awk '
/^BenchmarkE19JournaledPageOut\/(volatile|journaled)/ {
    for (i = 3; i < NF; i += 2) {
        if ($(i + 1) == "ns/page-out") {
            if ($1 ~ /journaled/) j = $i; else v = $i
        }
        if ($(i + 1) == "journaled-vs-volatile-x") ratio = $i
    }
}
END {
    if (j != "" && v != "")
        printf "E19 journaled page-out: %s vs %s ns (volatile), %sx (bound 2x)", j, v, ratio
}
' "$raw")
if [ -n "$e19" ]; then
	echo "$e19"
fi

# The delta doubles as a regression gate: any benchmark whose ns/op grew
# more than 20% over the baseline is flagged and fails the run, so a perf
# regression cannot land silently with a fresh archive. On a full run
# (no pattern), a benchmark in the baseline but absent from this run is
# listed as removed; that alone does not fail the run.
full=0
if [ "$pattern" = . ]; then
	full=1
fi
if [ -n "$base" ]; then
	echo ""
	echo "delta vs $base:"
	if ! awk -v limit=20 -v full="$full" '
	FNR == 1 { fileno++ }
	match($0, /"name": "[^"]*"/) {
	    name = substr($0, RSTART + 9, RLENGTH - 10)
	    if (match($0, /"ns\/op": [0-9.eE+-]+/)) {
	        ns = substr($0, RSTART + 9, RLENGTH - 9)
	        if (fileno == 1) {
	            old[name] = ns
	            order[++nold] = name
	        } else if (name in old) {
	            seen[name] = 1
	            pct = (ns - old[name]) / old[name] * 100
	            mark = ""
	            if (pct > limit) { mark = "  ** REGRESSION"; bad = 1 }
	            printf "  %-52s %14s -> %14s ns/op  %+.1f%%%s\n",
	                name, old[name], ns, pct, mark
	        } else {
	            printf "  %-52s %33s ns/op  (new)\n", name, ns
	        }
	    }
	}
	END {
	    for (i = 1; full && i <= nold; i++)
	        if (!(order[i] in seen))
	            printf "  %-52s %14s ns/op  (removed)\n", order[i], old[order[i]]
	    exit bad
	}
	' "$base" "$out"; then
		echo "bench: ns/op regression over 20% vs $base (see ** lines above)" >&2
		exit 1
	fi
fi
