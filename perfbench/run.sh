#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build and
# cache file under .bench_build in the current directory (the root of a
# checkout of the repository).
#
#   bash perfbench/run.sh --workload paper --seed 2007 --seconds 10 --trace 0
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "run.sh: no go.mod here; run it from the root of a checkout of the repository" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# Go telemetry is switched off so the go command starts no sidecar process
# that could outlive this script.
printf 'off\n' > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
