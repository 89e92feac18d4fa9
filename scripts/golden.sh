#!/usr/bin/env bash
# golden: the two vtime byte-identity invariants in one command. The full
# quick sweep (every figure and table) and Figure 3 are regenerated with the
# point-result cache off (-cache ''), and their stdout sha256s must equal the
# recorded ones. The sweep starts every section at once and simulates as many points
# at a time as there are CPUs, then prints the sections in their fixed order;
# its stdout is byte-identical to -parallel 1 by contract
# (TestRunParallelStdoutByteIdentical). Prints both digests, each with its
# wall time and the run's "dsmtxbench: sweep ... computed=N cached=M" summary
# (so a change in how much a sweep simulates shows); exits non-zero on a
# mismatch. A change that moves a golden on
# purpose updates the digest here and says why.
set -euo pipefail
cd "$(dirname "$0")/.."

# The sweep digest moved when the modelled drop-and-retransmit layer was
# deleted: Figure R lost its drop 0.0001, drop 0.001, drop 0.01 and
# retrans@1% columns (its header, rule and four rows), every other line of
# the sweep stayed byte-identical, and the sweep simulates 267 points
# instead of 279.
sweep=1a6bb18ec1f4041a55c52b14714ec3ce7e3c09d4bf6fd4df0a59c2c57b5be32c
figure3=d2fd41ade22e305e5b90554f65121d65c9357af6b069b07484052bcdc8714e08

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/dsmtxbench" ./cmd/dsmtxbench

fail=0
# check NAME WANT ARGS...: run dsmtxbench ARGS and compare its stdout sha256.
# Progress lines go to a log, shown only if the run itself fails; its sweep
# summary line, if any, is printed beside the digest.
check() {
    local name=$1 want=$2 got summary start=$SECONDS
    shift 2
    if ! "$work/dsmtxbench" "$@" >"$work/$name.out" 2>"$work/$name.log"; then
        cat "$work/$name.log" >&2
        echo "golden: $name: dsmtxbench $* failed" >&2
        exit 1
    fi
    got=$(sha256sum <"$work/$name.out" | cut -d' ' -f1)
    summary=$(grep '^dsmtxbench: sweep ' "$work/$name.log" || true)
    echo "golden: $name $got ($((SECONDS - start)) s)${summary:+ $summary}"
    if [ "$got" != "$want" ]; then
        echo "golden: $name: MISMATCH, want $want" >&2
        fail=1
    fi
}
check sweep "$sweep" -all -quick -cache '' -parallel "$(nproc)"
check figure3 "$figure3" -figure 3 -cache ''
exit "$fail"
