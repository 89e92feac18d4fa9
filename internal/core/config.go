package core

import (
	"fmt"

	"dsmtx/internal/cluster"
	"dsmtx/internal/mpi"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/platform"
	"dsmtx/internal/queue"
	"dsmtx/internal/trace"
)

// Backend selects the execution platform a System runs on.
type Backend int

const (
	// BackendVTime (the zero value) executes on the deterministic
	// virtual-time simulator: modelled cluster, instruction charging,
	// bit-identical repeat runs.
	BackendVTime Backend = iota
	// BackendHost executes the same protocol live on host goroutines:
	// wall-clock time, no instruction or wire-time modelling,
	// scheduler-dependent interleaving. Protocol outcomes (committed MTXs,
	// checksums) match vtime; timings do not. The observability tracer runs
	// here too, bound to the monotonic wall clock with lock-free per-rank
	// span buffers.
	BackendHost
	// BackendNet executes the protocol across OS processes: each daemon
	// hosts a contiguous range of ranks on an embedded host platform, and
	// cross-daemon messages travel as wire frames over TCP (see
	// internal/platform/net and internal/wire). Protocol outcomes match
	// vtime and host; like host, timings are wall-clock. The platform is
	// injected through Config.Platform by the orchestration layer
	// (internal/netrun), which owns the connection mesh — core never
	// dials.
	BackendNet
)

// String names the backend as the -backend CLI flag spells it, and an
// unknown value as backend(N).
func (b Backend) String() string {
	switch b {
	case BackendVTime:
		return "vtime"
	case BackendHost:
		return "host"
	case BackendNet:
		return "net"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// ParseBackend converts a -backend flag value into a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "vtime":
		return BackendVTime, nil
	case "host":
		return BackendHost, nil
	case "net":
		return BackendNet, nil
	}
	return 0, fmt.Errorf("core: unknown backend %q (have vtime, host, net)", s)
}

// Config assembles a DSMTX system.
type Config struct {
	// TotalCores is the number of cores devoted to the parallelization,
	// including the try-commit unit and the commit unit (the x-axis of
	// Fig. 4); the rest are workers.
	TotalCores int

	// Backend selects the execution platform: the deterministic
	// virtual-time simulator (the default), live host goroutines, or
	// distributed daemon processes (net).
	Backend Backend

	// Platform supplies the execution platform for the net backend: the
	// orchestration layer (internal/netrun) builds one platform per
	// invocation, bound to its connection mesh, and core calls the factory
	// with the rank count it laid out. NewSystem needs it when Backend is
	// BackendNet; nil otherwise (vtime and host platforms are built by core).
	Platform func(ranks int) (platform.Platform, error)

	// Plan is the parallelization scheme laid out over the workers.
	Plan pipeline.Plan

	// Cluster, MPICost and Queue configure the substrate.
	Cluster cluster.Config
	MPICost mpi.Cost
	Queue   queue.Config

	// Per-operation CPU costs, in instructions.
	LoadInstr        int64   // private-memory load (beyond any forwarding)
	StoreInstr       int64   // private-memory store
	BulkInstrPerByte float64 // bulk (block) memory traffic, instructions/byte

	// MarkerFlushIters is how many iterations of validation/commit stream
	// (subTX markers, forwarded stores) a worker may batch before flushing
	// to the try-commit and commit units; the verdict stream batches the
	// same way. Larger values amortize per-message overheads at the
	// decoupled units but delay misspeculation detection — the batching /
	// refill-cost tradeoff of §5.4. Misspeculation markers always flush
	// immediately.
	MarkerFlushIters int

	// COAPrefetch is how many contiguous non-resident pages one
	// Copy-On-Access fault pulls (read-ahead extending the paper's
	// "constructive prefetching" within a page to runs of pages).
	COAPrefetch    int
	PageServInstr  int64 // page-server CPU per served request
	PageFaultInstr int64 // worker-side fault handling per COA miss
	ProtectInstr   int64 // re-arming protection per resident page in recovery

	// Tracer, if non-nil, attaches the observability layer: per-rank
	// timeline spans (subTX, validate, commit, COA, recovery phases), the
	// metrics registry, and per-message-class traffic attribution. nil (the
	// default) keeps every hot path on the uninstrumented, allocation-free
	// fast path. On vtime the tracer reads the virtual clock and never
	// alters outcomes; on host it binds to the monotonic wall clock,
	// buffers spans in fixed per-rank lock-free rings, and additionally
	// instruments the delivery layer (mailbox depth, spin/park,
	// page-service latency).
	Tracer *trace.Tracer

	// Horizon aborts the simulation if virtual time exceeds it (a safety
	// net for runtime bugs); 0 means none. The host and net backends
	// ignore it (bound wall time with test or command timeouts instead).
	Horizon platform.Duration
}

// DefaultConfig returns a configuration matching the paper's platform with
// the given core count and plan.
func DefaultConfig(totalCores int, plan pipeline.Plan) Config {
	return Config{
		TotalCores:       totalCores,
		Plan:             plan,
		Cluster:          cluster.DefaultConfig(),
		MPICost:          mpi.DefaultCost(),
		Queue:            queue.DefaultConfig(),
		LoadInstr:        4,
		StoreInstr:       4,
		BulkInstrPerByte: 0.15,
		MarkerFlushIters: 8,
		COAPrefetch:      8,
		PageServInstr:    300,
		PageFaultInstr:   400,
		ProtectInstr:     30,
	}
}

// pollMin and pollMax bound the adaptive backoff used at blocking points
// (the runtime polls so that control messages interrupt waits).
const (
	pollMin = 100 * platform.Nanosecond
	pollMax = 1600 * platform.Nanosecond
)

// Workers reports the number of worker threads (cores minus the try-commit
// unit and the commit unit).
func (c Config) Workers() int { return c.TotalCores - 2 }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if err := c.Plan.Validate(); err != nil {
		return err
	}
	if c.Workers() < c.Plan.MinWorkers() {
		return fmt.Errorf("core: %d cores leave %d workers; plan %q needs %d",
			c.TotalCores, c.Workers(), c.Plan.Name, c.Plan.MinWorkers())
	}
	if c.TotalCores > c.Cluster.Ranks() {
		return fmt.Errorf("core: %d cores exceed the machine's %d", c.TotalCores, c.Cluster.Ranks())
	}
	if c.Backend != BackendVTime && c.Backend != BackendHost && c.Backend != BackendNet {
		return fmt.Errorf("core: unknown backend %d", c.Backend)
	}
	if c.Platform != nil && c.Backend != BackendNet {
		return fmt.Errorf("core: Config.Platform: injected platforms are a net-backend feature (the %s backend builds its own)", c.Backend)
	}
	return nil
}

// Rank layout: workers occupy ranks 0..W-1, then the try-commit unit, then
// the commit unit (whose rank also hosts the page-server process).

func (c Config) tryCommitRank() int { return c.Workers() }
func (c Config) commitRank() int    { return c.Workers() + 1 }

// Control-plane message tags (queue tags are allocated from tagQueueBase).
const (
	tagCtrl      = 1 // commit unit -> workers/try-commit: recovery broadcast
	tagPageReq   = 2 // any -> the commit unit's page server
	tagPageReply = 3 // page server -> requester
	tagOccAck    = 4 // parallel worker -> routing worker: iteration done
	tagStart     = 5 // commit unit -> all: Setup done, parallel section open
	tagQueueBase = 100
)
