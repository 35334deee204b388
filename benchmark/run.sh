#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark from source and runs it with
# the driver's arguments. Everything the build and the run write stays inside
# the checkout: the Go caches and the binary under .bench_build/, the drive
# directories under .bench_tmp/ (removed again when the run ends).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build"
	export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry files
	export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
	go build -o "$build/pangea-benchmark" .
)
cd "$root"
exec "$build/pangea-benchmark" -dir "$root/.bench_tmp" "$@"
