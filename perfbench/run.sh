#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload oneshot-mysql --seed 0 --seconds 30 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary)
# stays under .bench_build in the checkout root. Build failures exit
# nonzero without printing a result line.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" -commit "$commit" "$@"
