#!/bin/bash
# Entry point named by BENCHMARK.json. Builds ./bench from source into
# .bench_build/ — build cache and the go command's scratch directory included,
# so nothing is written outside the checkout — and runs it with the driver's
# arguments. In a directory without the repository's go.mod and internal/ the
# build fails and so does this.
set -eu
cd "$(dirname "$0")/.."
# XDG_CONFIG_HOME moves the go command's telemetry directory in here as well.
# On a fresh telemetry directory every go command forks a detached sidecar
# (the daily report/upload child) that can outlive this script, so telemetry
# is switched off first: "go telemetry off" is the one go command that starts
# no sidecar, and with the mode off none of the later ones does either.
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" \
	GOTMPDIR="$PWD/.bench_build/tmp" XDG_CONFIG_HOME="$PWD/.bench_build/config" \
	GOTOOLCHAIN=local
go telemetry off 2>/dev/null || true
go build -o .bench_build/rsstcp-bench ./bench
exec .bench_build/rsstcp-bench "$@"
