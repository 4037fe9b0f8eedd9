#!/usr/bin/env bash
# Builds snbench and cmd/snserve from this checkout, then runs snbench
# with the given arguments. Run from the repository root:
#
#   bash snbench/run.sh --workload classify-orb-small --seed 1 --seconds 30 --trace 0
#
# Build cache, binaries, run files and run records stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
# The go command's config, module cache and build cache all live under
# .bench_build, so a run writes nothing outside the checkout. Telemetry
# is off there: otherwise the go command may leave a detached child
# process running after a build, next to the timed phases.
mkdir -p "$out/tmp" "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/snserve" ./cmd/snserve
go build -C snbench -o "$out/snbench" .
exec "$out/snbench" -root "$root" -snserve "$out/snserve" "$@"
