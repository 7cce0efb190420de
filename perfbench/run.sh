#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, for
# example:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. The binary, the Go build cache
# and everything the benchmark writes stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
