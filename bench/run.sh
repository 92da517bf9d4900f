#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through (see bench/README.md). Build outputs, the
# Go build cache and run scratch stay in .bench_build/ at the root, so a
# run writes nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go -C "$root/bench" build -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
