#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload compile-stream --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artefact (the Go build cache
# and temporary files included) stays under .bench_build in the current
# directory. cgo is off, so the build needs no C toolchain.
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOPATH="${build}/gopath"
export XDG_CONFIG_HOME="${build}/config"
export TMPDIR="${build}/tmp" GOTMPDIR="${build}/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off GOTELEMETRY=off CGO_ENABLED=0

(cd "${root}/perfbench" && go build -o "${build}/perfbench" .) >&2
exec "${build}/perfbench" "$@"
