#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Everything the
# build and the run write (go caches, the binary, data directories, result
# files) stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOPROXY=off GOTOOLCHAIN=local TMPDIR="$out/tmp"
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
go -C "$here" build -buildvcs=false -o "$out/hotbench" .
exec "$out/hotbench" -base "$out" -commit "$commit" "$@"
