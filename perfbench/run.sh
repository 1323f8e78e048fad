#!/usr/bin/env bash
# Builds fragstudy and the benchmark from the source tree in the current
# directory (the repository root), then runs the benchmark with the given
# arguments, e.g.:
#
#   bash perfbench/run.sh --workload eval-warm --seed 1 --seconds 10 --trace 0
#
# Everything built or written stays under .bench_build/ in that directory,
# the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/fragstudy || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/fragstudy and perfbench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config" # go's env file and telemetry counters
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
mkdir -p "$GOCACHE" "$GOTMPDIR" .bench_build/bin

go build -o .bench_build/bin/fragstudy ./cmd/fragstudy
(cd perfbench && go build -o ../.bench_build/bin/perfbench .)
exec .bench_build/bin/perfbench "$@"
