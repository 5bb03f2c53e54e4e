#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# every argument passes through, e.g.
#   bash tecobench/run.sh --workload sweep --seed 42 --seconds 20 --trace 0
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/tecobench.
set -euo pipefail
out="$PWD/.bench_build/tecobench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd tecobench && go build -buildvcs=false -o "$out/tecobench" .) >&2
exec "$out/tecobench" "$@"
