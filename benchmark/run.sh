#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it there with the arguments given. Nothing is read or written
# outside the checkout: the Go build cache, GOPATH and HOME of the build
# step all point into .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"
(
	cd "$root/benchmark"
	HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/bvbenchmark" .
)
cd "$root"
exec "$build/bvbenchmark" "$@"
