#!/usr/bin/env bash
# headline: the paper's headline pair, DSMTX against TLS, run at 8 ranks on
# crc32 and 197.parser: the vtime model's speedup (and, for scale, at the
# paper's 128 cores), then the live host and net backends' wall-clock
# parallel time (median of RUNS runs, default 3).
# Every run must print VERIFIED. Prints the EXPERIMENTS.md table to stdout.
#
#   scripts/headline.sh [RUNS]
set -euo pipefail
cd "$(dirname "$0")/.."
runs=${1:-3}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/dsmtxrun" ./cmd/dsmtxrun

# run ARGS...: one verified dsmtxrun report on stdout.
run() {
    local out
    out=$("$work/dsmtxrun" "$@")
    grep -q VERIFIED <<<"$out" || { echo "headline: $*: not VERIFIED" >&2; exit 1; }
    echo "$out"
}

# wall ARGS...: the median parallel wall-clock time in ms over $runs runs.
wall() {
    for _ in $(seq "$runs"); do
        run "$@" | awk '/^  parallel / {
            v = $2; u = v; sub(/[a-zµ]+$/, "", v); sub(/^[0-9.]+/, "", u)
            f = (u == "s") ? 1e3 : (u == "ms") ? 1 : (u == "µs") ? 1e-3 : 1e-6
            printf "%.1f\n", v * f }'
    done | sort -n | awk '{ a[NR] = $1 } END { print a[int((NR + 1) / 2)] }'
}

echo "| bench | paradigm | vtime speedup | vtime speedup, 128 cores | host ms | net ms | committed (misspecs) |"
echo "|---|---|---|---|---|---|---|"
for bench in crc32 197.parser; do
    for p in dsmtx tls; do
        job=(-bench "$bench" -paradigm "$p" -cores 8)
        speedup=$(run "${job[@]}" | awk '/^  speedup / { print $2 }')
        wide=$(run -bench "$bench" -paradigm "$p" -cores 128 | awk '/^  speedup / { print $2 }')
        counts=$(run "${job[@]}" -backend net | awk '/^  MTXs committed / { print $3, $5 }' | tr -d ')')
        echo "| $bench | ${p^^} | $speedup | $wide | $(wall "${job[@]}" -backend host) | $(wall "${job[@]}" -backend net) | ${counts% *} (${counts#* }) |"
    done
done
