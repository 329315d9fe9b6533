#!/usr/bin/env bash
# Builds the benchmark and shadowd from this checkout's sources, then runs
# the benchmark with the arguments given. Everything it writes — Go build
# cache, binaries, scratch files — stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp"
go -C "$root/benchmark" build -o "$out/bin/shadowbench" . >&2
go -C "$root" build -o "$out/bin/shadowd" ./cmd/shadowd >&2
exec "$out/bin/shadowbench" -shadowd "$out/bin/shadowd" -tmp "$out/tmp" "$@"
