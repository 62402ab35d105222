#!/usr/bin/env bash
# Build maskbench and run it from the checkout root. The binary and what the
# go command leaves behind (build cache, temp files) land under .bench_build/
# there, so the benchmark reads and writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
if [ ! -f go.mod ]; then
	echo "maskbench: no go.mod in $PWD: the benchmark builds from a checkout of the whole repository" >&2
	exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# The go command counts its own use and hands the upload to a detached child
# that outlives it. Switched off in this private config directory, it starts
# no process the benchmark would have to wait for.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/maskbench" ./cmd/maskbench
exec "$out/maskbench" "$@"
