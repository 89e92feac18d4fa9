#!/usr/bin/env bash
# smoke: one end-to-end run per execution surface — the vtime tracer, fault
# injection, the live host backend (plain, traced, commit-sharded) and the
# multi-process net backend (both paradigms). Every row must exit 0 (dsmtxrun fails on a
# checksum MISMATCH) and, as a second check, print VERIFIED; a row that names
# a trace file has it validated by tracecheck. Binaries and artefacts live in
# a temp dir, never in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/dsmtxrun" ./cmd/dsmtxrun
go build -o "$work/compress" ./examples/compress
go build -o "$work/tracecheck" ./tools/tracecheck
cd "$work"

# row NAME TRACE CMD...: TRACE is the Chrome trace CMD writes, or - for none.
# The timeout bounds the live backends, which have no virtual-time horizon.
row() {
    local name=$1 trace=$2
    shift 2
    echo "== smoke: $name"
    timeout 120 "$@" | tee "$name.out"
    grep -q VERIFIED "$name.out" || { echo "smoke: $name: output is not VERIFIED" >&2; exit 1; }
    [ "$trace" = - ] || ./tracecheck "$trace"
}

# The public-API example's vtime timeline must stay Perfetto-loadable.
row trace trace.json ./compress -trace trace.json
# Latency spikes plus a straggling worker: the run stays VERIFIED and its
# stretched timeline stays Perfetto-loadable.
row resilience resilience.json ./dsmtxrun -bench crc32 -cores 16 \
    -faults spike=0.01:20us,straggler=r1:2x@2ms+200us,seed=7 -trace resilience.json
# Live goroutines with enough misspeculation to force real recovery.
row host - ./dsmtxrun -bench crc32 -cores 8 -misspec 0.02 -backend host
# Same with the wall-clock tracer: "clock":"wall", per-track monotone.
row host-trace host.json ./dsmtxrun -bench crc32 -cores 8 -misspec 0.02 -backend host -trace host.json
# Four commit shards: consistent-hash ownership, cross-shard votes and recovery.
row shard - ./dsmtxrun -bench crc32 -cores 16 -commit-shards 4 -misspec 0.02 -backend host
# Two daemon OS processes on loopback TCP: recovery, whose ERM/FLQ/SEQ/RFP
# breakdown must come back from the commit daemon and whose executed-subTX
# count is folded over both, then the one benchmark that chains invocations
# (an image carried across mesh generations).
row net-recover - ./dsmtxrun -bench 197.parser -cores 5 -misspec 0.05 -backend net
grep -q '^  recovery  *ERM ' net-recover.out || { echo "smoke: net-recover: no recovery line" >&2; exit 1; }
grep -q '^  speculation  *[1-9][0-9]* subTXs executed, 2400 useful ' net-recover.out || { echo "smoke: net-recover: no speculation line" >&2; exit 1; }
row net-chain - ./dsmtxrun -bench 052.alvinn -cores 6 -backend net
# The TLS paradigm across the same daemons: each one configures its ranks
# from the job spec it is sent, paradigm included.
row net-tls - ./dsmtxrun -bench crc32 -cores 8 -misspec 0.02 -paradigm tls -backend net
echo "smoke: OK"
