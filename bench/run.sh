#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark and the dsmtxd it
# drives from the checkout's sources, then run one workload. Run from the
# repository root:
#
#   bash bench/run.sh --workload host-stream --seed 1 --seconds 15 --trace 0
#
# Everything built or written stays under .bench_build/ in the checkout
# (Go build cache included), so the run touches nothing outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
export HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config"
export TMPDIR="$out/tmp"

# The bench module replaces dsmtx with the parent directory; in a directory
# holding only the benchmark there is nothing to build against, and this
# fails before any result is printed.
(cd "$here" && go build -o "$out/bin/bench" . && go build -o "$out/bin/dsmtxd" dsmtx/cmd/dsmtxd) >&2

exec "$out/bin/bench" -dsmtxd "$out/bin/dsmtxd" -workdir "$out/tmp" -root "$root" "$@"
