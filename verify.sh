#!/usr/bin/env bash
# Tier-1 verification: formatting, vet, build, full test suite, and the
# race detector over the packages that run real goroutines. CI and
# pre-commit both run this (or `make verify`).
set -euo pipefail
cd "$(dirname "$0")"

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...
# No function or method that only tests call: a type-checked reference scan
# over the non-test code of this module and bench/ (tools/deadcode; its
# allowlist names the public API, test oracles and test-helper packages).
go run ./tools/deadcode
# The 164.gzip kernel's per-layer benchmark, its input generator, the crc32
# kernel (CRC32Kernel, one 64 KiB file per op) and the host mailbox layer
# (Mailbox, 1 and 4 producers into one consumer), one op per benchmark so
# none can rot (numbers: EXPERIMENTS.md "The 164.gzip kernel, layer by
# layer", "serve-mix by job class" and "The host mailbox layer").
go test -run NONE -bench 'GzipKernel|GzInput|CRC32Kernel|Mailbox' -benchtime 1x ./internal/workloads/ ./internal/platform/host/
# The sim kernel hosts processes on real goroutines; everything above it is
# cooperative, but the handoff protocol itself must stay race-clean.
go test -race ./internal/sim/
# The experiment scheduler fans whole simulations across host goroutines, so
# the scheduler, the harness that feeds it, the workloads' shared caches, and
# the CLI run under the race detector too (short mode keeps it a smoke test).
go test -race -short ./internal/expsched/ ./internal/harness/ ./internal/workloads/ ./cmd/dsmtxbench/
# Fault plans are compiled once and then read concurrently by every rank of
# every parallel point, so the injector must stay race-clean.
go test -race ./internal/faults/
# The job engine multiplexes concurrent submissions over shared admission
# state, a singleflight table, and per-placement net fleets; its storm test
# and the dsmtxd/dsmtxload serving-path tests run under the race detector.
go test -race ./internal/engine/ ./cmd/dsmtxd/ ./cmd/dsmtxload/
# The host backend runs the whole DSMTX protocol on live goroutines; the
# platform tests and the backend-equivalence tests (vtime and host must both
# reproduce the sequential checksum with equal committed counts) are the
# data-race audit of the runtime itself. The platform sweep includes the net
# package (mesh, reconnect replay, generation buffering) and the delivery
# conformance suite run against both host and net mailboxes (mailbox delivery
# and the Idle poll-loop wait alike); netrun's tests run whole jobs (crc32,
# the chained 052.alvinn, a recovering 197.parser) over in-process ServeLoop
# daemons joined with Connect. cluster rides along for the vtime side of the
# Idle contract.
go test -race ./internal/platform/... ./internal/cluster/ ./internal/netrun/ ./cmd/dsmtxrun/
# Backend equivalence covers vtime, host, and net: the Net test (package
# workloads_test, since netrun imports workloads) re-execs the
# (race-instrumented) test binary as a two-daemon loopback fleet, so a real
# multi-process TCP run of every workload, under both paradigms, must reach
# the sequential checksum with committed/misspec counts equal to vtime, and
# three config knobs must verify there too (≈ 75 s of tests under -race on
# 2 CPUs, the Net test ≈ 68 s of it; the two GOMAXPROCS rows below run it
# again at each width).
go test -race ./internal/workloads/ -run TestBackendEquivalence
# The wire codec feeds the net transport; a short fuzz pass walks junk with
# ReadFrame, the frame reader the daemons run, reusing one buffer as their
# connection reader does, and keeps the decoder total on it (round-trip
# identity, a truncated body and an oversized length prefix are seeded).
go test -run=NONE -fuzz FuzzWireRoundTrip -fuzztime 10s ./internal/wire/
# The sharded commit pipeline adds AnySource control mailboxes and the
# cross-shard vote protocol to the live-goroutine surface; its dedicated
# commit-shard tests (TestCrossShardCommit, ...MatchesSingleShard,
# ...DeterministicRepeat, ...DeterministicConcurrent) run under the race
# detector too.
go test -race ./internal/core/ -run TestCrossShard
# Mailbox delivery and the per-commit-unit page servers behave
# differently under different scheduler pressure: GOMAXPROCS=2 forces heavy contention and
# parking (producers outnumber cores), GOMAXPROCS=8 maximises true parallelism.
# Pinning both in CI surfaces interleaving-dependent bugs here rather than on a
# loaded box. The backend-equivalence pattern includes the CommitShards
# sweep, and the core cross-shard, page-placement and lifecycle-span tests
# (the Tracer recording from live goroutines) ride along at both widths. So
# does everything that exercises bounded run-ahead — a blocking wait at the
# head of every pipeline, in every epoch of a live run, must be wedge-free at
# both widths: the workloads sweep (its misspeculating one-shard cells),
# core's recovery tests and seeded random sweep on host (clean programs
# included, at least one of which must wait), and netrun's two-daemon
# recovering 197.parser (first stage and commit unit in different processes). Queue batches go back to
# their sender through a free list — a cross-goroutine handoff — so the queue
# stress test (epoch bumps mid-stream, every value checked) and the
# cross-daemon no-recycle test ride along too. Idle parks after the same
# 64 polls as Recv, so poll loops park often: the delivery conformance suite
# (IdleWait, IdlePingPong, IdleAbort on host mailboxes and net meshes) runs at
# both widths. Live recovery re-arms only the pages that changed, from a
# stale list each rank receives after the last barrier: core's selective
# re-arm fixture (the commit unit's word, a squashed store) rides along.
live='TestBackendEquivalence|TestCrossShard|TestPageServicePlacement|TestLifecycleSpans|TestSelectiveRearm'
live+='|TestBoundedRunAhead|TestLiveRecoverySweep|TestMisspecOnFirstIteration|TestBackToBackMisspecs|TestMisspecStorm'
live+='|TestTLSRecovery|TestRecoveryProperty|TestConflictDetectionProperty|TestBulkReadConflict|TestConnectRunsSuccessiveJobs'
live+='|TestRecycledBatchesStress|TestCrossDaemonBatchNeverReturnsToSender|TestDeliveryConformance'
livepkgs='./internal/workloads/ ./internal/core/ ./internal/netrun/ ./internal/queue/ ./internal/platform/...'
GOMAXPROCS=2 go test -race -count=1 $livepkgs -run "$live"
GOMAXPROCS=8 go test -race -count=1 $livepkgs -run "$live"
# The whole bounded run-ahead sweep: every workload x paradigm, clean and
# misspeculating, one, two and four commit shards, each cross-checked against
# vtime at the same shard count (tier-1 runs only the misspeculating
# one-shard cells, without the cross-check).
go test -count=1 ./internal/workloads/ -run TestBoundedRunAheadSweep -sweep-all
# bench/ is its own module (BENCHMARK.json's entry point) compiled against
# this one's internal packages; the root ./... patterns never descend into
# it, so a root refactor could break the benchmark unnoticed without this.
(cd bench && go vet ./... && go test -short ./...)
echo "verify: OK"
