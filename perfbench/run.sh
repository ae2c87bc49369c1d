#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash perfbench/run.sh --workload tree --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, its temporary files, the binary) goes under .bench_build
# in the current directory, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
  /*) ;;
  *) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
