package core

import (
	"fmt"

	"dsmtx/internal/cluster"
	"dsmtx/internal/faults"
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
	// span buffers; only fault injection (built on virtual-time timers and
	// deterministic rolls) is rejected.
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
	// including the try-commit unit and the commit unit(s) (the x-axis of
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

	// CommitShards partitions the commit pipeline itself: the page space is
	// consistent-hashed (HRW over 64-page blocks) across this many commit
	// units, each owning its partition's committed image and running its own
	// group-commit/COA loop. MTXs whose writes span shards commit through an
	// ordered two-phase vote: the shard owning the MTX's lowest written page
	// coordinates, and because the global commit order is predefined the
	// prepare round is a single ordered vote per participant — ordering races
	// cannot abort, only real conflicts can. 0 or 1 means the paper's single
	// commit unit: the same pipeline with one shard, which owns every page,
	// coordinates every MTX and never waits for a vote.
	CommitShards int

	// COAGrainBytes models Copy-On-Access at sub-page granularity for the
	// §4.2 ablation ("the round-trip latency induced by COA can be
	// prohibitive if COA is done at a word granularity"): a fault then
	// takes PageSize/COAGrainBytes round trips to populate its page.
	// 0 (the default) is the paper's page granularity.
	COAGrainBytes int

	// COAPrefetch is how many contiguous non-resident pages one
	// Copy-On-Access fault pulls (read-ahead extending the paper's
	// "constructive prefetching" within a page to runs of pages).
	COAPrefetch    int
	PageServInstr  int64 // page-server CPU per served request
	PageFaultInstr int64 // worker-side fault handling per COA miss
	ProtectInstr   int64 // re-arming protection per resident page in recovery

	// Faults, if non-nil and non-empty, injects the compiled fault plan:
	// inter-node latency spikes and degradation windows, and straggler
	// ranks. nil (the default) and the empty plan leave every path
	// byte-identical to a fault-free build.
	Faults *faults.Plan

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

// commitShards reports the number of commit units (>= 1).
func (c Config) commitShards() int {
	if c.CommitShards < 1 {
		return 1
	}
	return c.CommitShards
}

// Workers reports the number of worker threads (cores minus the try-commit
// unit and the commit unit(s)).
func (c Config) Workers() int { return c.TotalCores - c.commitShards() - 1 }

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
	if c.CommitShards < 0 {
		return fmt.Errorf("core: Config.CommitShards = %d, need >= 0", c.CommitShards)
	}
	// What a live backend cannot run yet, each with its reason: the one
	// statement of these rows of the backend matrix (ROADMAP "Faults where
	// failures are real" and "Shard federation by message only").
	if !c.Faults.Empty() && c.Backend != BackendVTime {
		return fmt.Errorf("core: Config.Faults: fault injection is built on the virtual-time kernel; unsupported on the %s backend", c.Backend)
	}
	if c.CommitShards > 1 && c.Backend == BackendNet {
		return fmt.Errorf("core: Config.CommitShards = %d: commit shards share an in-process image arena; unsupported on the net backend", c.CommitShards)
	}
	if c.Platform != nil && c.Backend != BackendNet {
		return fmt.Errorf("core: Config.Platform: injected platforms are a net-backend feature (the %s backend builds its own)", c.Backend)
	}
	if base := tagCommitVoteBase + c.commitShards() - 1; base >= tagQueueBase {
		return fmt.Errorf("core: Config.CommitShards = %d exhausts the control tag space (max %d)",
			c.CommitShards, tagQueueBase-tagCommitVoteBase)
	}
	if !c.Faults.Empty() {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
		for _, st := range c.Faults.Stragglers {
			if st.Rank >= c.TotalCores {
				return fmt.Errorf("core: straggler rank %d outside the %d-core system",
					st.Rank, c.TotalCores)
			}
		}
	}
	return nil
}

// Rank layout: workers occupy ranks 0..W-1, then the try-commit unit, then
// the commit unit(s) (each commit rank also hosts a page-server process).
// Commit shard 0 is the lead: it runs Setup, the sequential portions, and
// termination.

func (c Config) tryCommitRank() int            { return c.Workers() }
func (c Config) commitRank() int               { return c.Workers() + 1 }
func (c Config) commitShardRank(shard int) int { return c.commitRank() + shard }

// Control-plane message tags (queue tags are allocated from tagQueueBase).
const (
	tagCtrl      = 1 // commit unit -> workers/try-commit: recovery broadcast
	tagPageReq   = 2 // any -> the owning commit unit's page server
	tagPageReply = 3 // page server -> requester
	tagOccAck    = 4 // parallel worker -> routing worker: iteration done
	tagStart     = 5 // commit unit -> all: Setup done, parallel section open
	// tagCommitVoteBase + k is the ordered 2PC vote tag addressed to commit
	// shard k acting as coordinator (cross-shard commits, stop votes at a
	// false decision, and the termination votes to the lead shard). Unused —
	// and never registered — when CommitShards <= 1.
	tagCommitVoteBase = 40
	tagQueueBase      = 100
)

// pageShardBlock is the page-ownership granularity in pages: CommitShards
// deals the page space to commit units in 64-page (256 KiB) blocks, so
// prefetch runs (COAPrefetch pages) almost never straddle owners while
// neighbouring working sets still spread across them.
const pageShardBlock = 64
