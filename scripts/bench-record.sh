#!/usr/bin/env bash
# bench-record: run every workload BENCHMARK.json names once, at the
# settings the benchmark driver uses, and append one line per workload to
# the checked-in, append-only BENCH_LOG.jsonl:
#   {"label":…,"tree":…,"summary":<bench's summary JSON>,"result":<bench's last line>}
# The summary already carries machine, commit, seed and per-job latencies;
# nothing is parsed or re-derived here — bench/README.md defines every field.
# The summary's commit field is HEAD, which before a commit is the parent of
# the change being timed. "tree" names the tree that was timed: the short
# HEAD on a clean tree; on a dirty one, HEAD plus "+dirty." and 12 hex digits
# of a sha256 over the tracked changes and the untracked, non-ignored files
# (BENCH_LOG.jsonl excluded, since this script appends to it).
#
# Usage: scripts/bench-record.sh LABEL        (or: make bench LABEL=pr17)
set -euo pipefail
cd "$(dirname "$0")/.."
label=${1:?usage: bench-record.sh LABEL}

tree=$(git rev-parse --short HEAD)
changes=$(
    git diff --binary HEAD -- . ':(exclude)BENCH_LOG.jsonl'
    git ls-files --others --exclude-standard -z -- . ':(exclude)BENCH_LOG.jsonl' | xargs -0 -r sha256sum
)
if [ -n "$changes" ]; then
    tree="$tree+dirty.$(sha256sum <<<"$changes" | cut -c1-12)"
fi

workloads=$(awk '/"workloads"/{w=1} /"end_to_end"/{w=0} w && /"name"/{gsub(/[",]/,""); print $2}' BENCHMARK.json)
for w in $workloads; do
    out=$(bash bench/run.sh --workload "$w" --seed 1 --seconds 15 --trace 0)
    printf '{"label":"%s","tree":"%s","summary":%s,"result":%s}\n' "$label" "$tree" \
        "$(sed -n 's/^summary //p' <<<"$out")" "$(tail -n 1 <<<"$out")" >>BENCH_LOG.jsonl
    echo "bench-record: $label $w -> BENCH_LOG.jsonl" >&2
done
