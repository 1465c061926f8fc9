#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload point-mix-small --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. The build (Go toolchain caches included)
# goes to .bench_build in the current directory; traced runs write their
# spans to .bench_build/trace.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	export GOCACHE="$out/go/cache" GOMODCACHE="$out/go/mod" GOPATH="$out/go/path" \
		XDG_CONFIG_HOME="$out/go/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
