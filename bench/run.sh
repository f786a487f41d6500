#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Run from the repository root:
#
#   bash bench/run.sh --workload nf_rare_lazy --seed 1 --seconds 10 --trace 0
#
# bench/ is a module of its own (bench/go.mod replaces streamgraph with
# ../), so it builds only beside the repository it measures. Everything
# the build and the run write stays under .bench_build/ and bench/out/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: run from the root of a streamgraph checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
# The go command's own files (build cache, module cache, telemetry
# counters) stay inside the checkout too; nothing is downloaded.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
