#!/usr/bin/env bash
# bench-pair: the paired protocol of bench/README.md as one command. Runs
# bench/run.sh for seeds 1..PAIRS in a pristine copy of PARENT_REF (git
# archive into .bench_build/parent) and in this checkout, alternating which
# side goes first; prints one line per run (the five end-to-end metrics and
# failed, read from bench's last output line only) and, per metric, the
# change's wins, both medians, the parent's own quartiles (a difference of
# medians inside Q1–Q3 is unresolved, not unchanged) and the median and
# min–max of the paired ratio change/parent. WORKLOAD "all" runs every
# BENCHMARK.json workload in turn; each keeps its runs in
# .bench_build/pair-WORKLOAD.txt.
#
# Usage: scripts/bench-pair.sh PARENT_REF WORKLOAD|all [PAIRS=10]
#        (or: make bench-pair PARENT=… WORKLOAD=… [PAIRS=…])
set -euo pipefail
cd "$(dirname "$0")/.."
parent=${1:?usage: bench-pair.sh PARENT_REF WORKLOAD|all [PAIRS=10]}
w=${2:?usage: bench-pair.sh PARENT_REF WORKLOAD|all [PAIRS=10]}
pairs=${3:-10}
if [ "$w" = all ]; then
    for w in $(awk -F'"' '/"workloads"/ { on = 1 } on && /"name"/ { print $4 } on && /\]/ { exit }' BENCHMARK.json); do
        "$0" "$parent" "$w" "$pairs"
    done
    exit
fi
metrics="setup_s jobs_per_s job_p50_ms cpu_ms_per_job peak_rss_mb"
mkdir -p .bench_build/parent # keep its own .bench_build (warm Go cache) across calls
find .bench_build/parent -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
git archive "$parent" | tar -x -C .bench_build/parent

run() { # run SIDE DIR SEED -> "SIDE SEED <five metrics> FAILED"
    local line m
    line=$(cd "$2" && bash bench/run.sh --workload "$w" --seed "$3" --seconds 15 --trace 0 2>/dev/null | tail -n 1)
    printf '%s %s' "$1" "$3"
    for m in $metrics failed; do
        printf ' %s' "$(sed -n "s/.*\"$m\":\({\"value\":\)\?\([0-9.e+-]*\).*/\2/p" <<<"$line")"
    done
    echo
}
echo "side seed $metrics failed  ($w, parent $parent)"
for i in $(seq 1 "$pairs"); do
    if ((i % 2)); then run parent .bench_build/parent "$i"; run change . "$i"
    else run change . "$i"; run parent .bench_build/parent "$i"; fi
done | tee ".bench_build/pair-$w.txt"
awk -v names="$metrics" '
    function sort(a, n,    i, j, t) { # a[1..n] in place
        for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j] < a[j-1]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t } }
    function quantile(a, n, f,    pos, lo) { # a[1..n] sorted; linear interpolation
        pos = 1 + (n - 1) * f; lo = int(pos)
        return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo]) }
    BEGIN { n = split(names, name, " ") }
    { for (k = 1; k <= n; k++) v[$1, $2, k] = $(k + 2); if ($2 > pairs) pairs = $2; failed[$1] += $(n + 3) }
    END { for (k = 1; k <= n; k++) { wins = 0
            for (i = 1; i <= pairs; i++) { P[i] = p = v["parent", i, k]; C[i] = c = v["change", i, k]; R[i] = c / p
                if (name[k] == "jobs_per_s" ? c > p : c < p) wins++ }
            sort(P, pairs); sort(C, pairs); sort(R, pairs)
            printf "%-15s change wins %d/%d  median parent %.4g (Q1–Q3 %.4g–%.4g) change %.4g  paired ratio change/parent median %.3f min %.3f max %.3f\n",
                name[k], wins, pairs, quantile(P, pairs, .5), quantile(P, pairs, .25), quantile(P, pairs, .75),
                quantile(C, pairs, .5), quantile(R, pairs, .5), R[1], R[pairs] }
        printf "failed jobs: parent %d, change %d\n", failed["parent"], failed["change"] }' ".bench_build/pair-$w.txt"
