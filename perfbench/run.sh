#!/usr/bin/env bash
# Builds the ColorBars benchmark from the checkout it sits in and runs
# it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload link-sim --seed 1 --seconds 15 --trace 0
#
# Every build artifact, cache and temporary file stays under
# .bench_build/ in the checkout, and the Go toolchain is never allowed
# to download anything. A checkout without the ColorBars module beside
# perfbench/ fails the build, so the script exits non-zero before
# printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
