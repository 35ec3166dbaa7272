#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload point-tcp --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the durable providers' data live
# under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -data-dir "$build/data" "$@"
