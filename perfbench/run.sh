#!/usr/bin/env bash
# Builds the perfbench driver from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload point-hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The binary, the Go build cache and every
# file a run writes stay under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"
(
	cd "$(dirname "$0")"
	GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/modcache" \
		XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
