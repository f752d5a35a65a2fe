#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload pop-peak --seed 1 --seconds 35 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binary,
# span files) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
