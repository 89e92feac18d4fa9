#!/usr/bin/env bash
# serve-demo: end-to-end exercise of the job-serving path. Builds dsmtxd
# and dsmtxload, starts `dsmtxd serve` on a loopback ephemeral port, drives
# a burst of mixed host-backend jobs through the HTTP API with every
# checksum verified against the sequential reference, then stops the
# server with SIGTERM and requires a clean drain.
#
# Environment knobs (defaults fit CI):
#   JOBS=50 CLIENTS=16 MAXJOBS=16 BENCHES=crc32,164.gzip CORES=8
#   DISTINCT=4  — distinct specs per benchmark; fewer than JOBS means the
#                 tail hits the result cache
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-50}
CLIENTS=${CLIENTS:-16}
MAXJOBS=${MAXJOBS:-16}
BENCHES=${BENCHES:-crc32,164.gzip}
CORES=${CORES:-8}
DISTINCT=${DISTINCT:-4}

work=$(mktemp -d)
pid=
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/dsmtxd" ./cmd/dsmtxd
go build -o "$work/dsmtxload" ./cmd/dsmtxload

log="$work/dsmtxd.log"
"$work/dsmtxd" serve -listen 127.0.0.1:0 -max-jobs "$MAXJOBS" \
    -queue-depth 512 -cache "$work/cache" >"$log" 2>&1 &
pid=$!

addr=
for _ in $(seq 1 100); do
    addr=$(sed -n 's#^dsmtxd: serving jobs on http://##p' "$log" | head -1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "serve-demo: server died:" >&2; cat "$log" >&2; exit 1; }
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "serve-demo: server never advertised its address:" >&2
    cat "$log" >&2
    exit 1
fi

"$work/dsmtxload" -addr "$addr" -jobs "$JOBS" -clients "$CLIENTS" \
    -bench "$BENCHES" -cores "$CORES" -distinct "$DISTINCT" | tee "$work/load.out"
grep -q 'VERIFIED' "$work/load.out"

kill -TERM "$pid"
wait "$pid"
pid=
cat "$log"
grep -q 'dsmtxd: drained' "$log"
echo "serve-demo: OK"
