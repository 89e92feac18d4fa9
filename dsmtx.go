// Package dsmtx is Distributed Software Multi-threaded Transactional
// memory: a software-only runtime that makes thread-level speculation (TLS)
// and speculative pipeline parallelism (Spec-DSWP) work on clusters without
// shared memory, as described in
//
//	Kim, Raman, Liu, Lee, August.
//	"Scalable Speculative Parallelization on Commodity Clusters."
//	MICRO 2010.
//
// A sequential loop is parallelized by wrapping each iteration in a
// multi-threaded transaction (MTX): pipeline stages execute the iteration's
// sub-transactions in private memories on different (simulated) cluster
// nodes, forwarding uncommitted values downstream; a try-commit unit
// validates speculative reads by value against the committed order; a
// commit unit applies each validated MTX atomically and orchestrates
// recovery when speculation fails. Every thread shares a Unified Virtual
// Address space, initialized lazily by Copy-On-Access page transfers.
//
// The cluster here is simulated: the runtime executes workloads for real —
// data moves, speculation fails, recovery re-executes — while time advances
// on a deterministic virtual clock modelling a 32-node InfiniBand cluster.
// That is what lets a laptop reproduce 128-core behaviour exactly.
//
// # Programming model
//
// Implement Program: Setup builds the initial memory state sequentially;
// Stage is the pipeline-stage body each worker runs per iteration; SeqIter
// re-executes an iteration non-speculatively during recovery. Inside Stage,
// the Ctx methods map to the paper's Table 1 API:
//
//	Table 1 (C)              Go
//	-----------              --
//	mtx_begin/mtx_end        implicit around each Stage call
//	mtx_produce/mtx_consume  Ctx.Produce / Ctx.Consume (+ Data/bulk forms)
//	mtx_read                 Ctx.Read, Ctx.ReadBytes (validated loads)
//	mtx_writeAll             Ctx.Write, Ctx.WriteBytes
//	mtx_writeTo              Ctx.WriteTo, Ctx.WriteCommit, Ctx.WriteBytesCommit
//	mtx_misspec              Ctx.Misspec
//	mtx_spawn                NewSystem + System.Run (workers spawn up front)
//	mtx_commitUnit           the built-in commit unit; Committer/Finalizer hooks
//	mtx_tryCommitUnit        the built-in try-commit unit
//	DSMTX_Init/Finalize      NewSystem / end of Run
//
// Plain Ctx.Load/Ctx.Store touch only the worker's private versioned
// memory; TLS-style synchronized dependences use Ctx.SyncSend/SyncRecv.
//
// # Quick start
//
//	plan := dsmtx.SpecDSWP("S", "DOALL", "S")
//	cfg := dsmtx.DefaultConfig(16, plan) // 16 cores: 14 workers + 2 units
//	sys, err := dsmtx.NewSystem(cfg, prog, nil)
//	res, err := sys.Run()
//
// See examples/ for complete programs and internal/workloads for the
// paper's 11 benchmarks.
package dsmtx

import (
	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/platform"
	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// Core runtime types.
type (
	// Config assembles a DSMTX system: core budget, plan, cluster model
	// and cost knobs.
	Config = core.Config
	// System is one configured execution; create with NewSystem, execute
	// with Run.
	System = core.System
	// Result summarizes an execution: elapsed virtual time, commits,
	// misspeculations, recovery phases, traffic.
	Result = core.Result
	// Program is a loop parallelized for DSMTX.
	Program = core.Program
	// Committer is the optional per-MTX commit hook.
	Committer = core.Committer
	// Finalizer is the optional post-loop hook.
	Finalizer = core.Finalizer
	// Ctx is the worker-side API (Table 1 operations).
	Ctx = core.Ctx
	// SeqCtx is the commit-unit-side sequential API.
	SeqCtx = core.SeqCtx
)

// Memory and address-space types.
type (
	// Addr is a unified virtual address, valid identically on every node.
	Addr = uva.Addr
	// Image is a software page table over the unified address space.
	Image = mem.Image
	// Plan is a parallelization scheme in the paper's DSWP+[...] notation.
	Plan = pipeline.Plan
	// Time is virtual time in nanoseconds.
	Time = platform.Time
)

// Observability types: set Config.Tracer to a NewTracer (timeline + metrics)
// or NewMetricsTracer (metrics only) and export with Tracer.WriteChromeTrace
// after Run. A nil Tracer — the default — keeps every runtime hot path on
// the uninstrumented, allocation-free fast path, and tracing never alters
// virtual-time outcomes.
type (
	// Tracer records per-rank virtual-time timelines (subTX, validate,
	// group-commit, Copy-On-Access round trips, recovery phases) and hosts
	// the metrics registry.
	Tracer = trace.Tracer
	// Metrics is the registry of named counters, gauges and histograms.
	Metrics = trace.Metrics
	// StallReport attributes each rank's time across busy, backpressure,
	// starvation, verdict-wait, recovery and blocked (System.StallReport).
	StallReport = trace.StallReport
)

// NewTracer returns a tracer that records timeline spans and metrics.
func NewTracer() *Tracer { return trace.New() }

// NewMetricsTracer returns a tracer that maintains only the metrics
// registry (no timeline events, so no per-event memory growth).
func NewMetricsTracer() *Tracer { return trace.NewMetricsOnly() }

// NewSystem validates cfg and builds an execution of prog. initial, if
// non-nil, seeds committed memory (for chaining parallel invocations).
func NewSystem(cfg Config, prog Program, initial *Image) (*System, error) {
	return core.NewSystem(cfg, prog, initial)
}

// DefaultConfig returns a configuration for the paper's evaluation platform
// (32 nodes x 4 cores over InfiniBand) using totalCores of it.
func DefaultConfig(totalCores int, plan Plan) Config {
	return core.DefaultConfig(totalCores, plan)
}

// RunSequential executes prog single-threaded for n iterations — the
// baseline speedups are measured against.
func RunSequential(cfg Config, prog Program, n uint64, initial *Image) (Time, *Image, error) {
	return core.RunSequential(cfg, prog, n, initial)
}

// SpecDOALL returns the fully parallel one-stage plan.
func SpecDOALL() Plan { return pipeline.SpecDOALL() }

// SpecDSWP builds a "Spec-DSWP+[...]" plan from stage kinds ("S", "DOALL").
func SpecDSWP(kinds ...string) Plan { return pipeline.SpecDSWP(kinds...) }

// DSWP builds a "DSWP+[...]" plan (speculation within stages only).
func DSWP(kinds ...string) Plan { return pipeline.DSWP(kinds...) }

// TLSPlan returns the TLS comparison plan: one parallel stage with a
// synchronization ring for non-speculated loop-carried dependences.
func TLSPlan() Plan { return pipeline.TLS() }

// NewImage returns an empty authoritative memory image (for standalone
// sequential runs and tests).
func NewImage() *Image { return mem.NewImage(nil) }
