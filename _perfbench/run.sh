#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash _perfbench/run.sh --workload wire-churn --seed 2024 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact (the Go build
# cache, the binary) and every file a run writes stays under
# .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0
(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
