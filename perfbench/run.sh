#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload fig3-qfa-2q --seed 1 --seconds 30 --trace 0
# The Go build cache, build outputs, run directories and traces all go
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout,
# and git is kept from searching above it.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomod
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GIT_CEILING_DIRECTORIES=$(dirname "$root")
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-work" --trace-dir "$out/perfbench-traces" "$@"
