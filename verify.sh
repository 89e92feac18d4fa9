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
# No function or method that only tests call, and no method of the modules'
# own interfaces that only tests call: a type-checked reference scan over the
# non-test code of this module and bench/ (tools/deadcode; its allowlist
# names the public API, test oracles and test-helper packages).
go run ./tools/deadcode
# The 164.gzip kernel's per-layer benchmark, its input generator, the crc32
# kernel (CRC32Kernel, one 64 KiB file per op) and the host mailbox layer
# (Mailbox, 1 and 4 producers into one consumer), one op per benchmark so
# none can rot (numbers: EXPERIMENTS.md "The 164.gzip kernel, layer by
# layer", "serve-mix by job class" and "The host mailbox layer").
go test -run NONE -bench 'GzipKernel|GzInput|CRC32Kernel|Mailbox' -benchtime 1x ./internal/workloads/ ./internal/platform/host/
# The design-choice ablations (batch size, COA read-ahead, marker flushing,
# inter-node latency), one run each so none can rot; their numbers are
# virtual time, so deterministic (EXPERIMENTS.md "Ablations").
go test -run NONE -bench Ablation -benchtime 1x .
# The sim kernel hosts processes on real goroutines; everything above it is
# cooperative, but the handoff protocol itself must stay race-clean.
go test -race ./internal/sim/
# A Copy-On-Access reply lends the page server's snapshot frames, which
# worker goroutines then read while others copy them on a store: the page
# image's copy-on-write rules run under the race detector too.
go test -race ./internal/mem/
# The experiment scheduler fans whole simulations across host goroutines, so
# the scheduler, the harness that feeds it, the workloads' shared caches, and
# the CLI run under the race detector too (short mode keeps it a smoke test).
go test -race -short ./internal/expsched/ ./internal/harness/ ./internal/workloads/ ./cmd/dsmtxbench/
# The job engine multiplexes concurrent submissions over shared admission
# state, a singleflight table, and per-placement net fleets; its storm test
# and the dsmtxd/dsmtxload serving-path tests run under the race detector.
go test -race ./internal/engine/ ./cmd/dsmtxd/ ./cmd/dsmtxload/
# The host backend runs the whole DSMTX protocol on live goroutines; the
# platform tests and the backend-equivalence tests (vtime and host must both
# reproduce the sequential checksum with equal committed counts) are the
# data-race audit of the runtime itself. The platform sweep includes the net
# package (mesh, a lost session failing both sides, a peer that never dials
# failing the job on the accepting side, generation buffering)
# and the delivery conformance suite run against both host and net mailboxes
# (mailbox delivery and the Idle poll-loop wait alike); netrun's tests run
# whole jobs (crc32, the chained 052.alvinn, a recovering 197.parser) over
# in-process ServeLoop daemons joined with Connect, and kill one of two
# spawn-local daemons mid-job, which must fail the job on the survivor.
# cluster rides along for the vtime side of the Idle contract.
go test -race ./internal/platform/... ./internal/cluster/ ./internal/netrun/ ./cmd/dsmtxrun/
# Backend equivalence covers vtime, host, and net: the Net test (package
# workloads_test, since netrun imports workloads) re-execs the
# (race-instrumented) test binary as a two-daemon loopback fleet, so a real
# multi-process TCP run of every workload, under both paradigms, must reach
# the sequential checksum with committed/misspec counts equal to vtime, and
# two config knobs must verify there too (≈ 75 s of tests under -race on
# 2 CPUs, the Net test ≈ 68 s of it; the two GOMAXPROCS rows below run it
# again at each width).
go test -race ./internal/workloads/ -run TestBackendEquivalence
# The wire codec feeds the net transport; a short fuzz pass walks junk with
# ReadFrame, the frame reader the daemons run, reusing one buffer as their
# connection reader does, and keeps the decoder total on it (round-trip
# identity, a truncated body and an oversized length prefix are seeded).
go test -run=NONE -fuzz FuzzWireRoundTrip -fuzztime 10s ./internal/wire/
# The payload bodies core registers on top of it — ctrl, page request, page
# reply, queue batch — are what daemons decode off the network; a second
# pass keeps their decoders total and bounded by the bytes that arrived.
# -fuzzminimizetime 10x: by default each new interesting input may be
# minimized for up to 60 s, longer than the whole pass, so one large page
# reply can hold the budget; capped at 10 executions, the 10 s go to new
# inputs (≈ 20 k a second on a 2-CPU box).
go test -run=NONE -fuzz FuzzCorePayloads -fuzztime 10s -fuzzminimizetime 10x ./internal/core/
# Mailbox delivery and the page server behave differently under different
# scheduler pressure: GOMAXPROCS=2 forces heavy contention and parking
# (producers outnumber cores), GOMAXPROCS=8 maximises true parallelism.
# Pinning both in CI surfaces interleaving-dependent bugs here rather than on a
# loaded box. The core page-placement and lifecycle-span tests (the Tracer
# recording from live goroutines) ride along at both widths, and so does the
# whole-image test (every workload's committed image, vtime and host, against
# the sequential one). So
# does everything that exercises bounded run-ahead — a blocking wait at the
# head of every pipeline, in every epoch of a live run, must be wedge-free at
# both widths: the workloads sweep (its misspeculating cells),
# core's recovery tests and seeded random sweep, whose programs draw vtime
# or host (clean programs included; at least one clean vtime program must
# wait, whatever the width), netrun's two-daemon
# recovering 197.parser (first stage and commit unit in different processes)
# and its three-daemon fleet, where a workers-only daemon sits between two
# others and each daemon crosses invocation boundaries on its own. Queue batches go back to
# their sender through a free list — a cross-goroutine handoff — so the queue
# stress test (epoch bumps mid-stream, every value checked) and the
# cross-daemon no-recycle test ride along too. Idle parks after the same
# 64 polls as Recv, so poll loops park often: the delivery conformance suite
# (IdleWait, IdlePingPong, IdleAbort on host mailboxes and net meshes) runs at
# both widths. Recovery re-arms only the pages that changed, from a
# stale list each rank receives after the last barrier: core's selective
# re-arm fixture (the commit unit's word, a squashed store; vtime and host,
# each against a full reset counted on the same run) rides along. The
# Committer hook runs on the commit goroutine while a Program
# value shared with the test records it: core's hook test (once per MTX, in
# order, recovery's re-executions included) rides along too. A page reply
# lends the snapshot's frames, read by several worker goroutines at once:
# core's lent-frame test rides along as well. So do the delivery rule's
# host tests (traffic sent before its tag is registered, conflicting
# senders on one tag) and the never-dialing mesh peer. So do the daemon's
# one-job tests: a data hello naming a job the daemon does not hold (a
# foreign one, or one it refused) is closed at once while the accept loop
# and a control session run beside it, and no mesh is built before Start.
live='TestBackendEquivalence|TestCommittedImageMatchesSequential|TestPageServicePlacement|TestLifecycleSpans|TestSelectiveRearm|TestCommitterHook|TestServedFrameIsLent'
live+='|TestBoundedRunAhead|TestLiveRecoverySweep|TestMisspecOnFirstIteration|TestBackToBackMisspecs|TestMisspecStorm'
live+='|TestTLSRecovery|TestRecoveryProperty|TestConflictDetectionProperty|TestBulkReadConflict|TestConnectRunsSuccessiveJobs|TestThreeDaemons'
live+='|TestRecycledBatchesStress|TestCrossDaemonBatchNeverReturnsToSender|TestDeliveryConformance'
live+='|TestEarlyTraffic|TestConflictingSendersPanic|TestNeverDialingPeerFailsJob'
live+='|TestForeignDataHelloClosedAtOnce|TestRefusedJobIsNotHeld|TestMeshWaitsForStart'
livepkgs='./internal/workloads/ ./internal/core/ ./internal/netrun/ ./internal/queue/ ./internal/platform/...'
GOMAXPROCS=2 go test -race -count=1 $livepkgs -run "$live"
GOMAXPROCS=8 go test -race -count=1 $livepkgs -run "$live"
# The whole bounded run-ahead sweep: every workload x paradigm, clean and
# misspeculating, each cross-checked against vtime (tier-1 runs only the
# misspeculating cells, without the cross-check).
go test -count=1 ./internal/workloads/ -run TestBoundedRunAheadSweep -sweep-all
# bench/ is its own module (BENCHMARK.json's entry point) compiled against
# this one's internal packages; the root ./... patterns never descend into
# it, so a root refactor could break the benchmark unnoticed without this.
(cd bench && go vet ./... && go test -short ./...)
echo "verify: OK"
