#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload:
#
#   bash e2ebench/run.sh --workload paper-tiled --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, the binary, trace files) stays under .bench_build/ there.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/home"
# Keep the toolchain's caches, config and telemetry inside the checkout.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -trimpath -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" "$@"
