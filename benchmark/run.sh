#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Everything the toolchain and the driver write (build cache,
# temp files, the binary, trace.json) stays under .bench_build in the
# current directory, which must be the root of a checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp" GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/kspbenchmark" .
exec "$build/kspbenchmark" "$@"
