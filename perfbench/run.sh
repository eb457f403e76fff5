#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload steady-exchange --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The build cache, the binary and
# everything a run writes (WAL state, spans, result files) stay under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

if ! (cd "$here" && go build -o "$build/bin/perfbench" .) >&2; then
	echo "perfbench: build failed (the benchmark builds against the repository's sources in ..)" >&2
	exit 2
fi
exec "$build/bin/perfbench" -dir "$build" "$@"
