#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload popular-reads --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything it writes (Go build cache,
# binary, store, span files) stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build"
mkdir -p "$work"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomod" GOPATH="$work/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$work/perfbench" .) >&2
cd "$root"
exec "$work/perfbench" --work "$work" "$@"
