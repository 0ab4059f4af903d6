#!/usr/bin/env bash
# Builds flixd, flixd-router, dblpgen and the benchmark from the working
# tree, then runs the benchmark with the given arguments, e.g.
#
#   bash flixperf/run.sh --workload dblp-read --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root.  Everything it builds or writes stays
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
# Keep the Go caches, module path, build temporaries and the toolchain's
# telemetry counters (written under the user config directory) inside the
# build directory.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
mkdir -p "$out/bin" "$out/tmp"
go build -o "$out/bin/" ./cmd/flixd ./cmd/flixd-router ./cmd/dblpgen
(cd flixperf && go build -o "$out/bin/flixperf" .)
exec "$out/bin/flixperf" --bin "$out/bin" --work "$out/work" "$@"
