#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload maintain --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build writes (binary,
# Go build cache, temporary files) stays under $CARGO_TARGET_DIR, or
# .bench_build when that is unset, so a run touches nothing outside the
# checkout. The build fails, and the script exits non-zero without a
# result, when the simulator's sources are not next to this directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
GOFLAGS= GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0 \
	go -C perfbench build -o "$out/perfbench" .

exec "$out/perfbench" "$@"
