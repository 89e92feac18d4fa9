package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"

	"dsmtx/internal/cluster"
	"dsmtx/internal/faults"
	"dsmtx/internal/mem"
	"dsmtx/internal/mpi"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/platform"
	"dsmtx/internal/platform/host"
	"dsmtx/internal/queue"
	"dsmtx/internal/sim"
	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// Program is a loop parallelized for DSMTX. Stage functions run on worker
// processes against the Ctx API; Setup, SeqIter and the optional hooks run
// on the commit unit against its authoritative image.
type Program interface {
	// Setup runs sequentially on the commit unit before the parallel
	// section, generating the initial non-speculative memory state. On the
	// net backend it also runs on every daemon without the commit rank,
	// with ctx.Shadow() true, so those ranks learn the same arena
	// addresses. Under Shadow(), Setup must return right after its last
	// allocation, before generating or storing any data, and must set no
	// program field other than the addresses it allocated.
	Setup(ctx *SeqCtx)

	// Stage executes pipeline stage `stage` of iteration `iter`. For the
	// first stage, returning false means iteration iter does not exist and
	// the loop terminates; other stages' return values are ignored.
	//
	// The runtime may unwind a Stage call (via panic it recovers itself)
	// when misspeculation recovery begins or when Ctx.Misspec is called;
	// stage code must not swallow panics.
	Stage(ctx *Ctx, stage int, iter uint64) bool

	// SeqIter re-executes iteration iter non-speculatively on the commit
	// unit during misspeculation recovery. It must reproduce the
	// iteration's committed effects exactly (including its rare paths).
	SeqIter(ctx *SeqCtx, iter uint64)
}

// Committer is an optional Program extension: Commit runs on the commit
// unit after each MTX commits (the commit_fun of Table 1).
type Committer interface {
	Commit(ctx *SeqCtx, iter uint64)
}

// Finalizer is an optional Program extension: Finalize runs on the commit
// unit after the loop terminates (e.g. final reductions).
type Finalizer interface {
	Finalize(ctx *SeqCtx)
}

// ctrlMsg is a commit-unit broadcast: "enter recovery at epoch, restarting
// from iteration restart"; with done set, "the whole run has committed; exit";
// or, to the first-stage workers under bounded run-ahead (awaitWindow),
// "epoch's commit point has reached progress"; or, with rearm set, on live
// backends, "recovery epoch's snapshot differs from the last one in stale"
// (cuNode.republish). Only a recovery order carries an epoch newer than its
// receiver's: a list of epoch e is sent just before recovery e's last
// barrier and a report after it, and both are read only after that barrier,
// which every receiver entered holding epoch e.
type ctrlMsg struct {
	epoch    uint64
	restart  uint64
	progress uint64
	done     bool
	rearm    bool
	stale    []uva.PageID
}

// recoverySignal unwinds worker/try-commit stacks to their main loops.
type recoverySignal struct{}

// Result summarizes one parallel execution. Durations are platform-neutral:
// virtual nanoseconds on the vtime backend, wall-clock nanoseconds on host.
// Per-unit busy and stall time is System.StallReport (needs a Config.Tracer).
type Result struct {
	Elapsed   platform.Duration
	Committed uint64 // MTXs committed (including recovery re-executions)
	Misspecs  uint64
	// SubTXs is every stage body the workers ran, squashed ones included:
	// against Committed × stages it says how much speculation was wasted.
	SubTXs uint64
	// Recovery phase totals across all misspeculations (Fig. 6).
	ERM platform.Duration // enter recovery mode: detection to first barrier
	FLQ platform.Duration // flush queues + re-protect
	SEQ platform.Duration // sequential re-execution of the aborted iteration
	RFP platform.Duration // refill pipeline: resume to first post-recovery commit
	// Traffic is the machine-wide wire traffic of the run.
	Traffic platform.TrafficStats
	Events  uint64 // simulation events (diagnostic; zero on host and net)
}

// Add folds another run's totals into r: a chained invocation's, or one
// commit shard's share of the same run.
func (r *Result) Add(o Result) {
	r.Elapsed += o.Elapsed
	r.Committed += o.Committed
	r.Misspecs += o.Misspecs
	r.SubTXs += o.SubTXs
	r.ERM += o.ERM
	r.FLQ += o.FLQ
	r.SEQ += o.SEQ
	r.RFP += o.RFP
	r.Traffic.Add(o.Traffic)
	r.Events += o.Events
}

// Bandwidth reports the application's modelled communication bandwidth in
// bytes per second — total data transferred divided by execution time
// (Fig. 5a).
func (r Result) Bandwidth() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Traffic.Bytes) / r.Elapsed.Seconds()
}

// System is one configured DSMTX execution: a worker pool, a try-commit
// unit, a commit unit and a page server wired together by batched queues on
// a simulated cluster.
type System struct {
	cfg  Config
	prog Program
	// plat is the execution platform every protocol component runs against.
	// kernel and mach are the vtime backend's underlying simulator stack,
	// kept for the vtime-only subsystems (faults and the tracer's virtual
	// clock); both are nil on the host backend.
	plat   platform.Platform
	kernel *sim.Kernel
	mach   *cluster.Machine
	world  *mpi.World
	layout pipeline.Layout

	workers []*workerNode
	tc      *tcNode
	cus     []*cuNode     // commit shards; cus[0] is the lead
	srvs    []*pageServer // srvs[k] serves commit shard k's partition

	// owner is the HRW (rendezvous-hash) page-ownership table: bucket b of
	// the page space (64-page blocks, modulo ownerBuckets) belongs to the
	// commit shard whose hash weight for b is highest — shard 0 for every
	// bucket with one shard.
	owner []uint8

	// merged memoizes the sequential-checksum view over the per-shard
	// committed images (CommitImage at CommitShards > 1).
	merged *mem.Image

	// seqArena is the sequential allocation region shared by every commit
	// shard's SeqCtx (Setup, recovery re-execution and Finalize may run on
	// different shards but must share one bump pointer).
	seqArena *uva.Arena

	// Queue registry, keyed by endpoint tids; queues lists every one of them.
	queues   []*queue.Queue[Entry]
	edgeQ    map[[2]int]*queue.Queue[Entry]
	toTCQ    []*queue.Queue[Entry]       // [worker]
	toCUQ    [][]*queue.Queue[Entry]     // [worker][commit shard]
	verdictQ []*queue.Queue[Entry]       // [commit shard]
	syncQ    map[int]*queue.Queue[Entry] // sender tid -> ring queue
	nextTag  int

	// routedStage is the parallel stage fed by a sequential predecessor,
	// or -1; routeSink is the sequential stage after it needing route
	// records, or -1.
	routedStage int
	routeSink   int

	allRanks []int
	life     []platform.Duration // per rank: its process's run time on its own clock

	// windowStride sizes the bound on first-stage run-ahead (see
	// boundRunAhead); zero = never bounded.
	windowStride uint64

	initialImage *mem.Image

	// tr is cfg.Tracer (nil = observability disabled); stalls is the
	// per-rank stall attribution assembled after Run.
	tr     *trace.Tracer
	stalls trace.StallReport

	// inj is the compiled fault plan (nil = faults off).
	inj *faults.Injector
}

// NewSystem validates the configuration and builds the (unstarted) system.
// initialImage, if non-nil, seeds the commit unit's memory before Setup —
// used to chain parallel invocations (e.g. training epochs).
func NewSystem(cfg Config, prog Program, initialImage *mem.Image) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, ok := prog.(Committer); ok && cfg.commitShards() > 1 { // the hook is a sequential section
		return nil, fmt.Errorf("core: Config.CommitShards = %d: Committer programs need the single commit unit (the per-MTX hook is a sequential section)", cfg.CommitShards)
	}
	layout, err := pipeline.NewLayout(cfg.Plan, cfg.Workers())
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:          cfg,
		prog:         prog,
		layout:       layout,
		edgeQ:        make(map[[2]int]*queue.Queue[Entry]),
		syncQ:        make(map[int]*queue.Queue[Entry]),
		nextTag:      tagQueueBase,
		routedStage:  -1,
		routeSink:    -1,
		initialImage: initialImage,
	}
	if err := s.analyzePlan(); err != nil {
		return nil, err
	}
	s.buildOwnerTable()
	// The commit unit's node doubles as page server; it gets the head
	// node's fat pipe (see cluster.Config.HeadNode).
	if s.cfg.Cluster.HeadNode < 0 {
		s.cfg.Cluster.HeadNode = s.cfg.Cluster.NodeOf(s.cfg.commitRank())
	}
	if cfg.Backend == BackendNet {
		// Distributed daemons. The orchestration layer owns the connection
		// mesh and injects a platform bound to it; core only supplies the
		// rank count its layout needs.
		if cfg.Platform == nil {
			return nil, fmt.Errorf("core: Config.Platform: the net backend needs an injected platform factory (run through internal/netrun or dsmtxrun -backend net)")
		}
		p, err := cfg.Platform(s.cfg.Cluster.Ranks())
		if err != nil {
			return nil, err
		}
		s.plat = p
	} else if cfg.Backend == BackendHost {
		// Live goroutines under the same protocol. Validate already
		// rejected the vtime-only subsystems (faults); the cluster
		// topology still drives rank placement for traffic attribution.
		s.plat = host.New(s.cfg.Cluster.Ranks(), s.cfg.Cluster.NodeOf)
	} else {
		s.kernel = sim.NewKernel()
		s.mach = cluster.New(s.kernel, s.cfg.Cluster)
		if !cfg.Faults.Empty() {
			inj, err := faults.Compile(*cfg.Faults)
			if err != nil {
				return nil, err
			}
			s.inj = inj
			s.mach.EnableFaults(inj)
		}
		s.plat = s.mach
	}
	if s.plat.Concurrent() {
		// Live ranks share the host's CPUs, so work that will be squashed
		// competes with the refill. A vtime rank owns its modelled core, as on
		// the paper's cluster, and Figure 6 measures that unbounded schedule.
		s.boundRunAhead()
	}
	s.world = mpi.NewWorld(s.plat, cfg.MPICost)
	s.buildQueues()
	for r := 0; r < cfg.TotalCores; r++ {
		s.allRanks = append(s.allRanks, r)
	}
	s.life = make([]platform.Duration, cfg.TotalCores)
	s.bindTracer()
	return s, nil
}

// ownerBuckets is the consistent-hash table size: the page space is dealt
// to buckets in pageShardBlock (64-page) blocks, and each bucket is owned by
// one commit shard. 4096 buckets keep per-shard load within a fraction of a
// percent of uniform for any realistic shard count while the table stays one
// cache line short of 4 KiB.
const ownerBuckets = 4096

// splitmix64 is the mixing function behind the rendezvous hash — cheap,
// stateless, and well-distributed for sequential inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// buildOwnerTable assigns every bucket to the commit shard with the highest
// rendezvous weight (HRW). Highest-random-weight hashing gives the CARP
// property the design calls for: growing from N to N+1 shards only moves the
// buckets the new shard wins — every other page keeps its owner.
func (s *System) buildOwnerTable() {
	n := s.cfg.commitShards()
	s.owner = make([]uint8, ownerBuckets)
	for b := 0; b < ownerBuckets; b++ {
		best, bestW := 0, uint64(0)
		for k := 0; k < n; k++ {
			if w := splitmix64(uint64(b)<<16 | uint64(k)); w >= bestW {
				bestW, best = w, k
			}
		}
		s.owner[b] = uint8(best)
	}
}

// ownerOf maps a page to the commit shard owning it: the HRW table keyed by
// the page's 64-page block.
func (s *System) ownerOf(id uva.PageID) int {
	return int(s.owner[(uint64(id)/pageShardBlock)%ownerBuckets])
}

// ownerSpan is the byte span over which page ownership is constant: owners
// can only change at pageShardBlock page boundaries, so bulk operations are
// split at most every ownerSpan bytes.
const ownerSpan = pageShardBlock * uva.PageSize

// shardSpace is the federated view of committed memory over every commit
// shard's image: each access routes to the owner shard. Sequential code
// (Setup, recovery re-execution, Finalize) runs against it on whichever
// shard holds the sequential baton at that moment — always at a point where
// every other commit shard is parked (before tagStart, or between recovery
// barriers), so cross-image access needs no locking.
type shardSpace struct {
	sys  *System
	imgs []*mem.Image
}

var _ mem.Space = (*shardSpace)(nil)

func (sp *shardSpace) imgFor(addr uva.Addr) *mem.Image {
	return sp.imgs[sp.sys.ownerOf(addr.Page())]
}

func (sp *shardSpace) Load(addr uva.Addr) uint64     { return sp.imgFor(addr).Load(addr) }
func (sp *shardSpace) Store(addr uva.Addr, v uint64) { sp.imgFor(addr).Store(addr, v) }

// forEachOwnerRange splits [addr, addr+n) at ownership-block boundaries and
// invokes fn per single-owner segment.
func forEachOwnerRange(addr uva.Addr, n int, fn func(a uva.Addr, off, ln int)) {
	for off := 0; off < n; {
		a := addr + uva.Addr(off)
		ln := n - off
		if rem := ownerSpan - int(uint64(a)&(ownerSpan-1)); ln > rem {
			ln = rem
		}
		fn(a, off, ln)
		off += ln
	}
}

func (sp *shardSpace) LoadBytes(addr uva.Addr, n int) []byte {
	out := make([]byte, n)
	sp.LoadBytesInto(out, addr)
	return out
}

// LoadBytesInto fills each owner's segment of dst in place.
func (sp *shardSpace) LoadBytesInto(dst []byte, addr uva.Addr) {
	forEachOwnerRange(addr, len(dst), func(a uva.Addr, off, ln int) {
		sp.imgFor(a).LoadBytesInto(dst[off:off+ln], a)
	})
}

func (sp *shardSpace) StoreBytes(addr uva.Addr, b []byte) {
	forEachOwnerRange(addr, len(b), func(a uva.Addr, off, ln int) {
		sp.imgFor(a).StoreBytes(a, b[off:off+ln])
	})
}

// MapPages maps each owner's run of frames into its image; owner segments
// are whole pages, since ownerSpan is.
func (sp *shardSpace) MapPages(addr uva.Addr, frames []*mem.Page) {
	forEachOwnerRange(addr, len(frames)*uva.PageSize, func(a uva.Addr, off, ln int) {
		sp.imgFor(a).MapPages(a, frames[off/uva.PageSize:(off+ln)/uva.PageSize])
	})
}

// pageSrvTrack is commit shard k's page server's synthetic timeline id: the
// server shares its commit unit's rank, so the servers take the first ids
// past the real ranks.
func (s *System) pageSrvTrack(k int) int { return s.cfg.TotalCores + k }

// pageSrvName names commit shard k's page server (process, track and stall
// row). Shard 0 keeps the bare name, so single-commit-unit vtime process
// naming — and hence event ordering — is what it always was.
func pageSrvName(k int) string {
	if k == 0 {
		return "pagesrv"
	}
	return fmt.Sprintf("pagesrv%d", k)
}

// bindTracer attaches cfg.Tracer to this invocation: stitches the
// platform's clock into the tracer's timeline (the vtime kernel, or the
// host's monotonic wall clock with per-rank span buffers), labels one track
// per rank (plus one synthetic track per page server), and resolves
// queue metric handles. On host it also hands the tracer to the platform so
// the delivery layer (mailboxes, parking) self-instruments. A nil
// tracer leaves everything on the uninstrumented path.
func (s *System) bindTracer() {
	s.tr = s.cfg.Tracer
	if s.tr == nil {
		return
	}
	if s.kernel != nil {
		s.tr.BindKernel(s.kernel)
	} else {
		s.tr.BindWall(s.plat, 0)
		// Both wall-clock platforms (host, and net's embedded host) expose
		// the delivery-layer instrumentation hook.
		if tp, ok := s.plat.(interface{ SetTracer(*trace.Tracer) }); ok {
			tp.SetTracer(s.tr)
		}
	}
	node := s.cfg.Cluster.NodeOf
	for w := 0; w < s.cfg.Workers(); w++ {
		s.tr.SetTrack(w, node(w), fmt.Sprintf("worker%d (S%d)", w, s.layout.StageOf(w)))
	}
	tc := s.cfg.tryCommitRank()
	s.tr.SetTrack(tc, node(tc), "trycommit0")
	for k := 0; k < s.cfg.commitShards(); k++ {
		r := s.cfg.commitShardRank(k)
		label := "commit"
		if k > 0 {
			label = fmt.Sprintf("commit.shard%d", k)
		}
		s.tr.SetTrack(r, node(r), label)
		s.tr.SetTrack(s.pageSrvTrack(k), node(r), pageSrvName(k))
	}
	for _, q := range s.queues {
		q.Instrument(s.tr)
	}
}

// analyzePlan finds the routed parallel stage and its downstream route sink,
// and rejects shapes the runtime does not support.
func (s *System) analyzePlan() error {
	p := s.cfg.Plan
	nPar := 0
	for st, stage := range p.Stages {
		if stage.Kind != pipeline.Parallel {
			continue
		}
		nPar++
		if st > 0 {
			if p.Stages[st-1].Kind != pipeline.Sequential {
				return fmt.Errorf("core: plan %q: parallel stage %d fed by a parallel stage", p.Name, st)
			}
			s.routedStage = st
			for nxt := st + 1; nxt < len(p.Stages); nxt++ {
				if p.Stages[nxt].Kind == pipeline.Sequential {
					s.routeSink = nxt
					break
				}
			}
		}
	}
	if nPar > 1 {
		return fmt.Errorf("core: plan %q has %d parallel stages; the runtime supports one", p.Name, nPar)
	}
	if p.Sync && (len(p.Stages) != 1 || p.Stages[0].Kind != pipeline.Parallel) {
		return fmt.Errorf("core: plan %q: sync rings require a single parallel stage", p.Name)
	}
	return nil
}

// newQueue builds and registers the Entry queue name from rank src to rank
// dst on the next free tag.
func (s *System) newQueue(name string, src, dst int) *queue.Queue[Entry] {
	q := queue.New(s.world, name, src, dst, s.nextTag, s.cfg.Queue, wireSize)
	s.nextTag++
	s.queues = append(s.queues, q)
	return q
}

// wiringEdges reports every stage edge the system must create queues for:
// the plan's edges plus the implicit route-record edge feeder→sink.
func (s *System) wiringEdges() [][2]int {
	edges := s.cfg.Plan.Edges()
	if s.routedStage >= 0 && s.routeSink >= 0 {
		feeder := s.routedStage - 1
		found := false
		for _, e := range edges {
			if e == [2]int{feeder, s.routeSink} {
				found = true
			}
		}
		if !found {
			edges = append(edges, [2]int{feeder, s.routeSink})
		}
	}
	return edges
}

func (s *System) buildQueues() {
	for _, e := range s.wiringEdges() {
		for _, src := range s.layout.Assign[e[0]] {
			for _, dst := range s.layout.Assign[e[1]] {
				s.edgeQ[[2]int{src, dst}] = s.newQueue(fmt.Sprintf("fwd%d-%d", src, dst), src, dst)
			}
		}
	}
	// Queue names and tag-allocation order with one commit shard are exactly
	// the pre-sharding layout ("cu%d", "verdict0"); extra shards append
	// ".%d"-suffixed queues in shard order. Names order vtime events, so the
	// try-commit queues keep the ".0" suffix the goldens were recorded with.
	nCU := s.cfg.commitShards()
	tc := s.cfg.tryCommitRank()
	for w := 0; w < s.cfg.Workers(); w++ {
		s.toTCQ = append(s.toTCQ, s.newQueue(fmt.Sprintf("tc%d.0", w), w, tc))
		var cus []*queue.Queue[Entry]
		for k := 0; k < nCU; k++ {
			name := fmt.Sprintf("cu%d", w)
			if nCU > 1 { // names order vtime events: one shard keeps "cu%d"
				name = fmt.Sprintf("cu%d.%d", w, k)
			}
			cus = append(cus, s.newQueue(name, w, s.cfg.commitShardRank(k)))
		}
		s.toCUQ = append(s.toCUQ, cus)
	}
	for k := 0; k < nCU; k++ {
		name := "verdict0"
		if nCU > 1 { // names order vtime events: one shard keeps "verdict0"
			name = fmt.Sprintf("verdict0.%d", k)
		}
		s.verdictQ = append(s.verdictQ, s.newQueue(name, tc, s.cfg.commitShardRank(k)))
	}
	if s.cfg.Plan.Sync {
		pool := s.layout.Assign[0]
		for i, w := range pool {
			next := pool[(i+1)%len(pool)]
			s.syncQ[w] = s.newQueue(fmt.Sprintf("sync%d", w), w, next)
		}
	}
}

// prevPool reports the pool predecessor of tid within its stage (the sync
// ring sender whose queue tid receives from).
func (s *System) prevPool(tid int) int {
	pool := s.layout.Assign[s.layout.StageOf(tid)]
	for i, w := range pool {
		if w == tid {
			return pool[(i+len(pool)-1)%len(pool)]
		}
	}
	panic("core: tid not in pool")
}

// applyDilation installs the fault plan's straggler multiplier (if any) on
// the process executing rank. Dilation stretches compute quanta only — wire
// time and queue latency are modelled elsewhere — which is exactly how a
// slow core (thermal throttling, co-tenant interference) presents. Fault
// plans exist only on the vtime backend, so the process is a *sim.Proc.
func (s *System) applyDilation(p platform.Proc, rank int) {
	if s.inj == nil {
		return
	}
	if d := s.inj.DilationFor(rank); d != nil {
		p.(*sim.Proc).SetDilation(d)
	}
}

// spawnRank starts a named protocol process on the platform, applying any
// straggler dilation configured for its rank. On the host backend the
// goroutine carries pprof labels (rank, role) so -cpuprofile output
// attributes samples per rank role; vtime processes are cooperative
// goroutines of one scheduler, where per-proc labels would only mislead.
func (s *System) spawnRank(name string, rank int, body func(platform.Proc)) {
	if !s.local(rank) {
		return
	}
	if s.plat.Concurrent() {
		role := strings.TrimRight(name, "0123456789")
		labels := pprof.Labels("dsmtx-rank", strconv.Itoa(rank), "dsmtx-role", role)
		s.plat.Spawn(name, func(p platform.Proc) {
			pprof.Do(context.Background(), labels, func(context.Context) { body(p) })
		})
		return
	}
	s.plat.Spawn(name, func(p platform.Proc) {
		s.applyDilation(p, rank)
		body(p)
	})
}

// local reports whether rank runs in this process. On the net backend only
// this daemon's ranks do; remote ranks are spawned by their owning daemon and
// reached through the mesh.
func (s *System) local(rank int) bool {
	lp, ok := s.plat.(interface{ LocalRank(int) bool })
	return !ok || lp.LocalRank(rank)
}

// publishSnapshots hands every page server a copy-on-write snapshot of its
// commit unit's image. Only called while every other commit shard is parked
// (before tagStart, or between recovery barriers B2 and B3), so snapshotting
// — or listing — a peer's image is race-free.
func (s *System) publishSnapshots() {
	for k, ps := range s.srvs {
		ps.setSnapshot(s.cus[k].img.Snapshot())
	}
}

// shadowSetup replays the program's allocations on net-backend daemons that
// do not host the commit rank. Setup caches arena addresses in program
// fields, and every rank derives the same ones because the allocation
// sequence is deterministic. Addresses are all a worker needs: the data
// lives on the commit daemon, and workers pull it through Copy-On-Access.
// Runs before any rank spawns.
func (s *System) shadowSetup() {
	if s.cfg.Backend == BackendNet && !s.local(s.cfg.commitRank()) {
		shadowReplay(s.cfg, s.prog)
	}
}

// shadowReplay runs prog's Setup as an allocation-only replay: a context
// with an arena but no process and no image, so Setup must return at
// Shadow() before it touches memory.
func shadowReplay(cfg Config, prog Program) {
	prog.Setup(&SeqCtx{cfg: cfg, arena: uva.NewArena(0), shadow: true})
}

// Run executes the parallel invocation to completion and reports the
// result. The commit unit's final memory is available via CommitImage.
func (s *System) Run() (Result, error) {
	for k := 0; k < s.cfg.commitShards(); k++ {
		s.cus = append(s.cus, newCUNode(s, k))
		s.srvs = append(s.srvs, newPageServer(s, k))
	}
	s.seqArena = uva.NewArena(0)
	if s.initialImage != nil {
		// Scatter the seed image to its owner shards before any process
		// starts (single-threaded here, so spawn gives happens-before). Each
		// frame is mapped shared, so a shard's first store to it copies it
		// and the seed stays unchanged.
		s.initialImage.ForEachResident(func(id uva.PageID, pg *mem.Page) {
			s.cus[s.ownerOf(id)].img.MapPages(uva.PageAddr(id), []*mem.Page{pg})
		})
	}
	s.tc = newTCNode(s)
	for w := 0; w < s.cfg.Workers(); w++ {
		s.workers = append(s.workers, newWorkerNode(s, w))
	}
	s.shadowSetup()
	// Spawn order: receivers of early traffic must bind mailboxes in their
	// spawn bodies before any delivery event fires; on vtime all spawns are
	// enqueued ahead of any send, so order here is just cosmetic. On host,
	// goroutines start immediately and registration can race delivery — the
	// host endpoint's any-source migration makes that safe.
	for k, cu := range s.cus {
		name := "commit"
		if k > 0 {
			name = fmt.Sprintf("commit%d", k)
		}
		s.spawnRank(name, cu.rank, cu.run)
	}
	s.spawnRank("trycommit0", s.tc.rank, s.tc.run) // names order vtime events; see pageSrvName
	// Page servers share their commit unit's core, so a straggler window on
	// that rank slows them too.
	for k, ps := range s.srvs {
		s.spawnRank(pageSrvName(k), s.cus[k].rank, ps.run)
	}
	for _, w := range s.workers {
		w := w
		s.spawnRank(fmt.Sprintf("worker%d", w.tid), w.rank, w.run)
	}
	if err := s.plat.Run(s.cfg.Horizon); err != nil {
		return Result{}, fmt.Errorf("core: %s on %d cores: %w", s.cfg.Plan.Name, s.cfg.TotalCores, err)
	}
	res := s.cus[0].result
	for _, c := range s.cus[1:] {
		res.Add(c.result)
	}
	for _, w := range s.workers {
		res.SubTXs += w.subTXs // zero for a rank another daemon ran (net)
	}
	s.tr.Metrics().Counter("subtx.executed").Add(res.SubTXs)
	res.Elapsed = s.plat.Now()
	res.Traffic = s.plat.Traffic()
	res.Events = s.plat.Events()
	s.buildStallReport()
	// Recycle worker and try-commit page frames: their speculative images
	// are dead once the run ends (only the commit unit's memory is exposed
	// via CommitImage). Counters survive Reset for post-run diagnostics.
	for _, w := range s.workers {
		if w.img != nil {
			w.img.Reset()
		}
	}
	if s.tc.img != nil {
		s.tc.img.Reset()
	}
	return res, nil
}

// buildStallReport attributes each rank's virtual time across the stall
// causes. The identity per process is
//
//	Advanced + Blocked == Busy + Starvation + Backpressure + VerdictWait + Recovery + Blocked'
//
// where Recovery is the wall time of the rank's recovery windows (see
// stallRow) and Blocked' excludes parks inside them. The bucket
// *accounting* runs unconditionally — plain integer adds on paths that
// already do time arithmetic — but the report (its label strings and row
// slice) is only assembled when a tracer is attached, keeping the untraced
// Run allocation profile unchanged.
func (s *System) buildStallReport() {
	if s.tr == nil {
		return
	}
	s.stalls = trace.StallReport{}
	for _, w := range s.workers {
		if w.proc == nil {
			continue // remote rank (net backend): reported by its own daemon
		}
		row := stallRow(w.proc, w.stallStarve+w.stallBack, w.rec)
		row.Track, row.Label, row.Stage = w.rank, fmt.Sprintf("worker%d", w.tid), fmt.Sprintf("S%d", w.stage)
		row.Backpressure, row.Starvation = w.stallBack, w.stallStarve
		s.stalls.Add(row)
	}
	if tc := s.tc; tc.proc != nil {
		row := stallRow(tc.proc, tc.pollTime, tc.rec)
		row.Track, row.Label, row.Stage = tc.rank, "trycommit0", "trycommit"
		row.Starvation = tc.pollTime
		s.stalls.Add(row)
	}
	s.stalls.CommitShards = s.cfg.commitShards() > 1 // display only: the shard columns
	for k, c := range s.cus {
		if c.proc == nil {
			continue
		}
		label := "commit"
		if k > 0 {
			label = fmt.Sprintf("commit.shard%d", k)
		}
		row := stallRow(c.proc, c.pollTime, c.rec)
		row.Track, row.Label, row.Stage = c.rank, label, "commit"
		row.Starvation, row.VerdictWait, row.VoteWait = c.stallStarve, c.stallVerdict, c.voteWait
		s.stalls.Add(row)
	}
	for k, ps := range s.srvs {
		if ps.proc == nil {
			continue
		}
		s.stalls.Add(trace.StallRow{
			Track:      s.pageSrvTrack(k),
			Label:      pageSrvName(k),
			Stage:      "pagesrv",
			Busy:       ps.proc.Advanced(),
			Blocked:    ps.proc.Blocked(),
			ShardQueue: ps.depthHW,
		})
	}
	// Live runs add the delivery column: wall time parked, read from each
	// rank's endpoint (so the commit row also covers its co-located page
	// server, which shares the rank's mailboxes). Their
	// processes charge no time (Proc.Advanced and Blocked are zero), so Busy
	// is what a rank's stall columns leave of its lifetime — untimed blocking
	// receives (COA replies) included; a page server only ever blocks.
	if hp, ok := s.plat.(interface {
		RankDelivery(int) int64
	}); ok {
		s.stalls.Host = true
		for i := range s.stalls.Rows {
			row := &s.stalls.Rows[i]
			if row.Track >= s.cfg.TotalCores {
				continue
			}
			row.Busy = s.life[row.Track] - (row.Total() - row.Busy)
			row.Park = sim.Time(hp.RankDelivery(row.Track))
		}
	}
}

// StallReport exposes the per-rank stall attribution assembled by Run;
// empty unless a Config.Tracer was attached.
func (s *System) StallReport() *trace.StallReport { return &s.stalls }

// CommitImage exposes the committed memory after Run, for checksum
// comparison against the sequential reference and for chaining invocations.
// With a sharded commit pipeline this is a copy-on-write merge of every
// shard's image (their page sets are disjoint by ownership), built once and
// memoized.
func (s *System) CommitImage() *mem.Image {
	if len(s.cus) == 0 {
		return nil
	}
	if s.cfg.commitShards() == 1 { // one image needs no merge
		return s.cus[0].img
	}
	if s.merged == nil {
		imgs := make([]*mem.Image, len(s.cus))
		for k, c := range s.cus {
			imgs[k] = c.img
		}
		s.merged = mem.Merge(imgs...)
	}
	return s.merged
}

// instrTime converts instructions to time under the execution platform
// (modelled clock cycles on vtime; zero on host, where the instructions
// already cost real time).
func (s *System) instrTime(n int64) platform.Duration { return s.plat.InstrTime(n) }

// SeqCtx is the execution context for sequential code on the commit unit:
// Setup, SeqIter, Commit and Finalize — and for the pure sequential
// reference execution (RunSequential). It operates directly on the
// authoritative image.
type SeqCtx struct {
	cfg   Config
	proc  platform.Proc
	img   mem.Space
	arena *uva.Arena
	// instr converts instructions to platform time; nil means the cluster
	// clock (the pure sequential reference, which always runs in vtime).
	instr func(int64) platform.Duration
	// shadow marks the allocation-only replay of Setup (see Shadow).
	shadow bool
}

// Shadow reports whether Setup is running as the allocation-only replay on
// a net daemon that does not host the commit rank. Such a context has an
// arena but no memory and no clock: Setup must make every allocation it
// would make for real, then return before it generates or stores data.
func (c *SeqCtx) Shadow() bool { return c.shadow }

// instrTime converts an instruction count to this context's platform time.
func (c *SeqCtx) instrTime(n int64) platform.Duration {
	if c.instr != nil {
		return c.instr(n)
	}
	return c.cfg.Cluster.InstrTime(n)
}

// Load reads a word from committed memory.
func (c *SeqCtx) Load(addr uva.Addr) uint64 {
	c.proc.Advance(c.instrTime(c.cfg.LoadInstr))
	return c.img.Load(addr)
}

// Store writes a word to committed memory.
func (c *SeqCtx) Store(addr uva.Addr, v uint64) {
	c.proc.Advance(c.instrTime(c.cfg.StoreInstr))
	c.img.Store(addr, v)
}

// LoadFloat reads a float64 from committed memory.
func (c *SeqCtx) LoadFloat(addr uva.Addr) float64 { return floatOf(c.Load(addr)) }

// StoreFloat writes a float64 to committed memory.
func (c *SeqCtx) StoreFloat(addr uva.Addr, v float64) { c.Store(addr, bitsOf(v)) }

// Alloc allocates n bytes from the sequential region (owner 0).
func (c *SeqCtx) Alloc(n int64) uva.Addr { return c.arena.Alloc(n) }

// AllocWords allocates n words from the sequential region.
func (c *SeqCtx) AllocWords(n int) uva.Addr { return c.arena.AllocWords(n) }

// Free releases an allocation made via this context.
func (c *SeqCtx) Free(addr uva.Addr) { c.arena.Free(addr) }

// Compute charges n instructions of work to the commit unit.
func (c *SeqCtx) Compute(n int64) { c.proc.Advance(c.instrTime(n)) }

// LoadBytes reads a block from committed memory, charging bulk cost.
func (c *SeqCtx) LoadBytes(addr uva.Addr, n int) []byte {
	c.Compute(int64(float64(n) * c.cfg.BulkInstrPerByte))
	return c.img.LoadBytes(addr, n)
}

// LoadBytesInto is LoadBytes into the caller's buffer, at the same charge.
func (c *SeqCtx) LoadBytesInto(dst []byte, addr uva.Addr) {
	c.Compute(int64(float64(len(dst)) * c.cfg.BulkInstrPerByte))
	c.img.LoadBytesInto(dst, addr)
}

// StoreBytes writes a block to committed memory, charging bulk cost.
func (c *SeqCtx) StoreBytes(addr uva.Addr, b []byte) {
	c.Compute(int64(float64(len(b)) * c.cfg.BulkInstrPerByte))
	c.img.StoreBytes(addr, b)
}

// Image exposes the underlying memory space for bulk, cost-free
// initialization in Setup (e.g. loading input files); prefer Load/Store in
// modelled code. It is the federated view over every commit shard's image
// (one image with a single commit unit); under Shadow() it is nil.
func (c *SeqCtx) Image() mem.Space { return c.img }
