#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of the repository, with the benchmark's own flags:
#
#   bash perfbench/run.sh --workload exact-small --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and traced runs' span logs all stay inside
# the checkout, under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out" "$@"
