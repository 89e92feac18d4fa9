# Development entry points. `make verify` is the tier-1 gate (root module
# plus the bench/ module); `make smoke` runs one VERIFIED-gated end-to-end
# job per execution surface (scripts/smoke.sh: vtime trace, misspeculating
# vtime trace, host, traced host, multi-process net);
# `make serve-demo` boots the dsmtxd job server, drives ~50 mixed verified
# jobs through the HTTP API with dsmtxload, and requires a clean SIGTERM
# drain; `make bench LABEL=prN` runs the repository benchmark (bench/,
# BENCHMARK.json) once per workload and appends the result lines to
# BENCH_LOG.jsonl; `make bench-pair PARENT=<ref> WORKLOAD=<w|all>` runs the
# paired parent/change protocol any performance claim needs; `make loc`
# prints the size number simplicity PRs quote (tracked non-test Go outside
# bench/, per package and total); `make golden` checks the two vtime
# byte-identity invariants (scripts/golden.sh: the quick sweep and Figure 3
# stdout sha256s).

.PHONY: verify smoke golden serve-demo bench bench-pair loc

verify:
	./verify.sh

smoke:
	./scripts/smoke.sh

golden:
	./scripts/golden.sh

serve-demo:
	timeout 300 ./scripts/serve-demo.sh

# Record one bench/ result line per BENCHMARK.json workload under a label
# (override: make bench LABEL=pr17); ~2 minutes, not run by CI.
LABEL ?= current
bench:
	./scripts/bench-record.sh $(LABEL)

# Ten alternating parent/change runs of one workload (WORKLOAD=all: each in
# turn) with wins, medians, the parent's quartiles and paired ratios
# (bench/README.md "paired protocol"); ~10 minutes per workload.
PAIRS ?= 10
bench-pair:
	./scripts/bench-pair.sh $(PARENT) $(WORKLOAD) $(PAIRS)

loc:
	./scripts/loc.sh
