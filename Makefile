# Development entry points. `make verify` is the tier-1 gate (root module
# plus the bench/ module); `make smoke` runs one VERIFIED-gated end-to-end
# job per execution surface (scripts/smoke.sh: vtime trace, fault
# injection, host, traced host, commit-sharded host, multi-process net);
# `make serve-demo` boots the dsmtxd job server, drives ~50 mixed verified
# jobs through the HTTP API with dsmtxload, and requires a clean SIGTERM
# drain; `make bench-host` records the host-side perf trajectory in
# BENCH_host.json.

.PHONY: verify smoke serve-demo bench-host

verify:
	./verify.sh

smoke:
	./scripts/smoke.sh

serve-demo:
	timeout 300 ./scripts/serve-demo.sh

# Record the host benchmarks under a label (override: make bench-host LABEL=pr2).
# The serving-path load row rides along: a high-concurrency dsmtxload burst
# against a live dsmtxd serve appends throughput, p50/p99/p999 latency, and
# cache behaviour to BENCH_host.json under the same label.
LABEL ?= current
bench-host:
	go run ./tools/benchhost -label $(LABEL)
	JOBS=200 CLIENTS=120 MAXJOBS=0 DISTINCT=8 OUT=BENCH_host.json LABEL=$(LABEL)-load ./scripts/serve-demo.sh
