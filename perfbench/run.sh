#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare before.jsonl after.jsonl
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
# The benchmark runs from the root, so it gets the directory as given;
# the Go toolchain, which runs in perfbench/, gets it absolute.
export PERFBENCH_OUT=${CARGO_TARGET_DIR:-.bench_build}
out=$PERFBENCH_OUT
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
