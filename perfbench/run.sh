#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it:
#
#   bash perfbench/run.sh --workload megaswarm-1k --seed 1 --seconds 30 --trace 0
#
# Run from the root of the checkout. Build cache, binary and results
# stay under .bench_build in that checkout; nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
