#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's source and runs it
# with the given arguments, e.g.
#   bash perfbench/run.sh --workload angha-batch --seed 20220402 --seconds 10 --trace 0
# Run it from the repository root. Build outputs, the Go build cache and
# span files stay under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
