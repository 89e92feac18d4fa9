#!/usr/bin/env bash
# bench-record: run every workload BENCHMARK.json names once, at the
# settings the benchmark driver uses, and append one line per workload to
# the checked-in, append-only BENCH_LOG.jsonl:
#   {"label":…,"summary":<bench's summary JSON>,"result":<bench's last line>}
# The summary already carries machine, commit, seed and per-job latencies;
# nothing is parsed or re-derived here — bench/README.md defines every field.
# The commit field is HEAD at the time of the run: record after committing,
# or let the label say which change the lines belong to.
#
# Usage: scripts/bench-record.sh LABEL        (or: make bench LABEL=pr17)
set -euo pipefail
cd "$(dirname "$0")/.."
label=${1:?usage: bench-record.sh LABEL}

workloads=$(awk '/"workloads"/{w=1} /"end_to_end"/{w=0} w && /"name"/{gsub(/[",]/,""); print $2}' BENCHMARK.json)
for w in $workloads; do
    out=$(bash bench/run.sh --workload "$w" --seed 1 --seconds 15 --trace 0)
    printf '{"label":"%s","summary":%s,"result":%s}\n' "$label" \
        "$(sed -n 's/^summary //p' <<<"$out")" "$(tail -n 1 <<<"$out")" >>BENCH_LOG.jsonl
    echo "bench-record: $label $w -> BENCH_LOG.jsonl" >&2
done
