#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash pipebench/run.sh --workload ingest-locking --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# repetitions' stores all live under .bench_build/ there, and no module is
# fetched: the benchmark imports only the standard library and this
# repository.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Everything the go command writes (build cache, temporary files, its
# configuration and telemetry) stays under $build.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$here" build -o "$build/pipebench" .
exec "$build/pipebench" --dir "$build" "$@"
