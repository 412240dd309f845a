#!/usr/bin/env bash
# Builds swapbench from the checkout's source and runs it with the given
# arguments, e.g.
#
#   bash cmd/swapbench/run.sh --workload fig12 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, temp files, Chrome traces, job-server state)
# stays under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$build/bin/swapbench" .)
exec "$build/bin/swapbench" "$@"
