#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from, then
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload analyze --seed 2016 --seconds 15 --trace 0
#   bash perfbench/run.sh --selftest
#
# The binary, the Go build cache and all scratch files stay under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/gocache" "$build/gomodcache" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod \
	CARGO_TARGET_DIR="$build"

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
