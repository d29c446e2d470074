#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark inside the
# checkout (build cache and binaries under .bench_build/) and runs it from
# the repo root. Arguments are passed through.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p .bench_build/bin
go build -C bench -o ../.bench_build/bin/bench .
exec .bench_build/bin/bench "$@"
