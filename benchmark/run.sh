#!/usr/bin/env bash
# The driver's entry point: builds and runs ./benchmark with every Go
# tool directory pinned inside the checkout, so a run reads and writes
# nothing outside it. Arguments are passed through (see README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
# A go command with telemetry on (the default "local" mode) starts a
# detached uploader child that outlives it; switch it off in the pinned
# config dir so no run leaves a process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
