#!/usr/bin/env bash
# loc: lines of non-test Go outside bench/, tracked files only (a plain `find`
# also counts git-ignored copies such as .bench_build/parent). The size number
# CHANGES.md and ROADMAP.md quote: one row per package, the total last.
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^bench/' | xargs wc -l |
    awk '$2 != "total" { d = $2; if (!sub(/\/[^\/]*$/, "", d)) d = "."; n[d] += $1; t += $1 }
         END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); print t }'
