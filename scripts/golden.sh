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

# Both digests moved when vtime took on the protocol the live backends run,
# bounded run-ahead and selective re-arm: Figure 3's first stage now waits
# at the run-ahead window (its run ends 1.3 µs earlier), and in the sweep
# Figure 6's RFP falls in every row (the refill no longer refetches every
# working set), its SEQ grows by building the stale-page list, and a few
# Figure 4 and table cells move by about 1x (179.art at 64 cores 26x → 29x).
# Every checksum, and the 239 points the sweep simulates, stayed.
# Before that, the sweep digest moved when commit sharding left the product: Figure S's
# section (its title, header, rule, six rows and blank line) left -all,
# every other line of the sweep stayed byte-identical, and the sweep
# simulates 239 points instead of 263 (Figure S's 24 runs at 512 and 1024
# cores). Before that it moved when fault injection left: Figure R's block
# went, 267 points to 263.
sweep=d0942cf76c29a37f1b100992c9de002fd8798ebfc2274840a962c6cdcddf20ce
figure3=26e54a616616ff6a0ef9ad496dddb4dfa50fa780de7eceb5edce2df1859d7a62

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
