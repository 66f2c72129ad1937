#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; arguments
# pass through (--workload, --seed, --seconds, --trace). Build outputs, the
# Go build cache and run scratch files stay under .bench_build/ at the root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --work "$out/work" "$@"
