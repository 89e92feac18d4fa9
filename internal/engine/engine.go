package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"

	"dsmtx/internal/core"
	"dsmtx/internal/expsched"
	"dsmtx/internal/job"
	"dsmtx/internal/netrun"
	"dsmtx/internal/trace"
	"dsmtx/internal/workloads"
)

// ErrOverloaded is the typed admission rejection: the queue is full or the
// job can never fit the core budget. Clients are expected to back off and
// retry; the server maps it to 503.
type ErrOverloaded struct {
	Reason string
}

func (e *ErrOverloaded) Error() string { return "engine: overloaded: " + e.Reason }

// ErrDraining rejects submissions arriving after Drain/Close began.
var ErrDraining = fmt.Errorf("engine: draining: not accepting new jobs")

// Config sizes an Engine.
type Config struct {
	// MaxConcurrent bounds jobs running at once; <= 0 is unlimited.
	MaxConcurrent int
	// QueueDepth bounds jobs waiting for a slot beyond the running ones;
	// <= 0 defaults to 64. Ignored when MaxConcurrent and CoreBudget are
	// both unlimited.
	QueueDepth int
	// CoreBudget bounds the summed Cores of running jobs (the machine's
	// core budget); <= 0 is unlimited. A job asking for more cores than
	// the whole budget is rejected outright.
	CoreBudget int
	// Cache, when non-nil, serves duplicate specs from the
	// content-addressed result store instead of re-running them.
	Cache *expsched.Cache
	// Exe is the binary net-backend jobs re-exec as spawn-local daemons;
	// empty defaults to os.Args[0] (dsmtxrun, dsmtxd, and test binaries
	// all divert into DaemonMain).
	Exe string
}

// Stats is a snapshot of the engine's counters. PoolBuilds counts net daemon
// fleets launched or joined and PoolReuses net jobs that found their
// placement's fleet already up; in-process jobs build a fresh core.System
// each and move neither.
type Stats struct {
	Submitted  uint64 `json:"submitted"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Rejected   uint64 `json:"rejected"`
	CacheHits  uint64 `json:"cache_hits"`
	Coalesced  uint64 `json:"coalesced"`
	PoolReuses uint64 `json:"pool_reuses"`
	PoolBuilds uint64 `json:"pool_builds"`
	Running    int    `json:"running"`
	Queued     int    `json:"queued"`
	CoresInUse int    `json:"cores_in_use"`
}

// Engine executes jobs: bounded admission in FIFO order with per-job core
// accounting, persistent daemon fleets on the net backend, and a
// request-level result cache. The zero value is not usable; construct with
// New.
type Engine struct {
	cfg Config
	exe string

	mu         sync.Mutex
	cond       *sync.Cond // broadcast on job completion (Drain waits on it)
	queue      []*ticket
	running    int
	coresInUse int
	draining   bool
	inflight   map[job.Spec]*call
	clusters   map[string]*netCluster

	metrics *trace.Metrics
	met     engineMetrics
}

// ticket is one queued admission request.
type ticket struct {
	cores     int
	ready     chan struct{}
	cancelled bool
}

// call is one in-flight cacheable job other submissions of the same spec
// coalesce onto.
type call struct {
	done chan struct{}
	res  Result
	err  error
	// ownCtxErr marks err as the leader's own context error (it was
	// cancelled in the admission queue): followers must not inherit it.
	ownCtxErr bool
}

// engineMetrics are the engine's instruments in its own registry, and the
// only record of the counts Stats reports.
type engineMetrics struct {
	cSubmitted *trace.Counter
	cCompleted *trace.Counter
	cFailed    *trace.Counter
	cRejected  *trace.Counter
	cCacheHit  *trace.Counter
	cCoalesced *trace.Counter
	cPoolReuse *trace.Counter
	cPoolBuild *trace.Counter
	gRunning   *trace.Gauge
	gQueued    *trace.Gauge
	gCores     *trace.Gauge
}

// New builds an engine.
func New(cfg Config) *Engine {
	exe := cfg.Exe
	if exe == "" {
		exe = os.Args[0]
	}
	m := trace.NewMetrics()
	e := &Engine{
		cfg:      cfg,
		exe:      exe,
		inflight: make(map[job.Spec]*call),
		clusters: make(map[string]*netCluster),
		metrics:  m,
		met: engineMetrics{
			cSubmitted: m.Counter("engine.jobs.submitted"),
			cCompleted: m.Counter("engine.jobs.completed"),
			cFailed:    m.Counter("engine.jobs.failed"),
			cRejected:  m.Counter("engine.jobs.rejected"),
			cCacheHit:  m.Counter("engine.jobs.cachehit"),
			cCoalesced: m.Counter("engine.jobs.coalesced"),
			cPoolReuse: m.Counter("engine.pool.reuse"),
			cPoolBuild: m.Counter("engine.pool.build"),
			gRunning:   m.Gauge("engine.jobs.running"),
			gQueued:    m.Gauge("engine.jobs.queued"),
			gCores:     m.Gauge("engine.cores.inuse"),
		},
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Metrics returns the engine's registry: the engine.jobs.*, engine.pool.*
// and engine.cores.inuse instruments, for a live /metrics endpoint.
func (e *Engine) Metrics() *trace.Metrics { return e.metrics }

// Stats snapshots the counters: the registry's engine.jobs.* and
// engine.pool.* values, and the admission state. The counters are read one
// at a time and only go up; Submitted is read last, so a snapshot never
// shows more completed, failed or rejected jobs than submitted ones.
func (e *Engine) Stats() Stats {
	m := &e.met
	s := Stats{
		Completed:  m.cCompleted.Value(),
		Failed:     m.cFailed.Value(),
		Rejected:   m.cRejected.Value(),
		CacheHits:  m.cCacheHit.Value(),
		Coalesced:  m.cCoalesced.Value(),
		PoolReuses: m.cPoolReuse.Value(),
		PoolBuilds: m.cPoolBuild.Value(),
	}
	s.Submitted = m.cSubmitted.Value()
	e.mu.Lock()
	defer e.mu.Unlock()
	s.Running = e.running
	s.Queued = len(e.queue)
	s.CoresInUse = e.coresInUse
	return s
}

// CacheStats reports the result cache's on-disk footprint (zero stats and
// false when no cache is configured).
func (e *Engine) CacheStats() (expsched.CacheStats, bool) {
	if e.cfg.Cache == nil {
		return expsched.CacheStats{}, false
	}
	st, err := e.cfg.Cache.Stats()
	if err != nil {
		return expsched.CacheStats{}, false
	}
	return st, true
}

// queueDepth resolves the configured queue bound.
func (e *Engine) queueDepth() int {
	if e.cfg.QueueDepth <= 0 {
		return 64
	}
	return e.cfg.QueueDepth
}

// canRunLocked reports whether a job wanting cores fits right now.
func (e *Engine) canRunLocked(cores int) bool {
	if e.cfg.MaxConcurrent > 0 && e.running >= e.cfg.MaxConcurrent {
		return false
	}
	if e.cfg.CoreBudget > 0 && e.coresInUse+cores > e.cfg.CoreBudget {
		return false
	}
	return true
}

// grantLocked accounts a job as running.
func (e *Engine) grantLocked(cores int) {
	e.running++
	e.coresInUse += cores
	e.met.gRunning.Set(int64(e.running))
	e.met.gCores.Set(int64(e.coresInUse))
}

// dispatchLocked grants queued tickets in strict FIFO order: the head
// blocks everyone behind it until it fits, so a stream of small jobs can
// never starve a large one (FIFO fairness over throughput).
func (e *Engine) dispatchLocked() {
	for len(e.queue) > 0 {
		t := e.queue[0]
		if t.cancelled {
			e.queue = e.queue[1:]
			continue
		}
		if !e.canRunLocked(t.cores) {
			break
		}
		e.queue = e.queue[1:]
		e.grantLocked(t.cores)
		close(t.ready)
	}
	e.met.gQueued.Set(int64(len(e.queue)))
}

// admit blocks until the job may run (FIFO, within the core budget) and
// returns its release function. Rejections are immediate and typed:
// *ErrOverloaded when the queue is full or the job can never fit,
// ErrDraining after shutdown began. With neither MaxConcurrent nor
// CoreBudget set every job fits, so the queue stays empty and each job is
// granted at once.
func (e *Engine) admit(ctx context.Context, cores int) (func(), error) {
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return nil, ErrDraining
	}
	if e.cfg.CoreBudget > 0 && cores > e.cfg.CoreBudget {
		e.mu.Unlock()
		e.met.cRejected.Inc()
		return nil, &ErrOverloaded{Reason: fmt.Sprintf("job needs %d cores, budget is %d", cores, e.cfg.CoreBudget)}
	}
	if len(e.queue) == 0 && e.canRunLocked(cores) {
		e.grantLocked(cores)
		e.mu.Unlock()
		return func() { e.release(cores) }, nil
	}
	if queued := len(e.queue); queued >= e.queueDepth() {
		e.mu.Unlock()
		e.met.cRejected.Inc()
		return nil, &ErrOverloaded{Reason: fmt.Sprintf("%d jobs queued (depth %d)", queued, e.queueDepth())}
	}
	t := &ticket{cores: cores, ready: make(chan struct{})}
	e.queue = append(e.queue, t)
	e.met.gQueued.Set(int64(len(e.queue)))
	e.mu.Unlock()

	select {
	case <-t.ready:
		return func() { e.release(cores) }, nil
	case <-ctx.Done():
		e.mu.Lock()
		select {
		case <-t.ready:
			// Granted while we were cancelling: release the slot.
			e.mu.Unlock()
			e.release(cores)
		default:
			t.cancelled = true
			// A cancelled head must not block the tickets behind it.
			e.dispatchLocked()
			e.cond.Broadcast()
			e.mu.Unlock()
		}
		return nil, ctx.Err()
	}
}

// release returns a job's admission slot and wakes the queue.
func (e *Engine) release(cores int) {
	e.mu.Lock()
	e.running--
	e.coresInUse -= cores
	e.met.gRunning.Set(int64(e.running))
	e.met.gCores.Set(int64(e.coresInUse))
	e.dispatchLocked()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Submit runs one job to completion: cache first, then coalescing with an
// identical in-flight spec, then bounded admission and execution. It blocks
// until the result is ready; ctx cancels waiting in the admission queue (a
// job already running completes regardless — partial speculative state
// cannot be handed back).
func (e *Engine) Submit(ctx context.Context, spec job.Spec) (Result, error) {
	return e.SubmitOpts(ctx, spec, Options{})
}

// SubmitOpts is Submit with per-submission observability and placement
// options. Submissions carrying observability sinks bypass the cache and the
// coalescer.
func (e *Engine) SubmitOpts(ctx context.Context, spec job.Spec, opts Options) (Result, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if err := opts.Validate(spec); err != nil {
		return Result{}, err
	}
	e.met.cSubmitted.Inc()
	if !opts.plain() {
		return e.runJob(ctx, spec, opts)
	}

	if e.cfg.Cache != nil {
		var res Result
		if ok, err := e.cfg.Cache.Get(spec, &res); err == nil && ok {
			e.met.cCacheHit.Inc()
			e.met.cCompleted.Inc()
			res.Source = "cache"
			return res, nil
		}
	}

	for {
		e.mu.Lock()
		c, following := e.inflight[spec]
		if !following {
			c = &call{done: make(chan struct{})}
			e.inflight[spec] = c
			e.mu.Unlock()
			c.res, c.err = e.runJob(ctx, spec, opts)
			c.ownCtxErr = ctx.Err() != nil && errors.Is(c.err, ctx.Err())
			e.mu.Lock()
			delete(e.inflight, spec)
			e.mu.Unlock()
			close(c.done)
			return c.res, c.err
		}
		e.mu.Unlock()
		e.met.cCoalesced.Inc()
		select {
		case <-c.done:
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
		if c.ownCtxErr {
			// The leader gave up waiting on its own context, which says
			// nothing about this submission's: go round again, as the new
			// leader unless another follower got there first.
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			continue
		}
		if c.err != nil {
			return Result{}, c.err
		}
		res := c.res
		res.Source = "coalesced"
		e.met.cCompleted.Inc()
		return res, nil
	}
}

// runJob admits and executes one job (the singleflight leader's path).
func (e *Engine) runJob(ctx context.Context, spec job.Spec, opts Options) (Result, error) {
	// Resolve the verification reference before taking an admission slot:
	// the seq job takes its own slot, and nesting Submit under a held slot
	// could deadlock a fully-loaded engine.
	var seqTime Result
	if spec.Verify {
		var err error
		seqTime, err = e.Submit(ctx, job.Spec{Kind: job.KindSeq, Bench: spec.Bench,
			Scale: spec.Scale, Seed: spec.Seed, Rate: spec.Rate, Knob: spec.Knob})
		if err != nil {
			return Result{}, fmt.Errorf("engine: %s: sequential reference: %w", spec, err)
		}
	}
	release, err := e.admit(ctx, max(spec.Cores, 1)) // a seq job's Cores normalize to 0
	if err != nil {
		return Result{}, err
	}
	res, err := e.execute(spec, opts)
	release()
	if err != nil {
		e.met.cFailed.Inc()
		return Result{}, err
	}
	if spec.Verify {
		res.SeqTime = seqTime.SeqTime
		res.SeqCheck = seqTime.SeqCheck
		res.Verified = res.Checksum == seqTime.SeqCheck
	}
	res.Source = "run"
	if opts.plain() && e.cfg.Cache != nil {
		// Cache write failures are non-fatal: the job ran.
		if e.cfg.Cache.Put(spec, res) == nil {
			e.dropInput(spec)
		}
	}
	e.met.cCompleted.Inc()
	return res, nil
}

// dropInput forgets the generated input of a job whose result is now
// cached: every repeat of spec is a cache hit, so spec reads it no more.
// It stays while another queued or running job reads the same input (a
// sweep's other cores, paradigms and rates), and a seq job never drops it:
// its verified parallel run reads it next.
func (e *Engine) dropInput(spec job.Spec) {
	if spec.Kind == job.KindSeq {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for other := range e.inflight {
		if other != spec && other.Bench == spec.Bench && other.Seed == spec.Seed && other.Scale == spec.Scale {
			return
		}
	}
	workloads.DropInput(spec.Bench, spec.Input())
}

// execute runs the admitted job on its backend.
func (e *Engine) execute(spec job.Spec, opts Options) (Result, error) {
	b, err := workloads.ByName(spec.Bench)
	if err != nil {
		return Result{}, err
	}
	in := spec.Input()
	if spec.Kind == job.KindSeq {
		tune, err := job.KnobTune(spec.Knob)
		if err != nil {
			return Result{}, err
		}
		elapsed, check, err := workloads.RunSequentialTuned(b, in, tune)
		if err != nil {
			return Result{}, err
		}
		return Result{SeqTime: elapsed, SeqCheck: check}, nil
	}
	if spec.ParsedBackend() == core.BackendNet {
		return e.executeNet(spec, opts)
	}
	tune, err := spec.Tune(opts.Tracer)
	if err != nil {
		return Result{}, err
	}
	res, err := workloads.RunParallel(b, in, spec.ParsedParadigm(), spec.Cores, tune)
	if err != nil {
		return Result{}, err
	}
	return Result{Result: res}, nil
}

// executeNet runs a job across a daemon fleet, reusing a persistent
// cluster per placement (the daemons accept successive Job frames on one
// control session).
func (e *Engine) executeNet(spec job.Spec, opts Options) (Result, error) {
	h := e.netClusterFor(opts)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cl == nil {
		var cl *netrun.Cluster
		var err error
		if len(opts.NetJoin) > 0 {
			cl, err = netrun.Connect(opts.NetJoin)
		} else {
			cl, err = netrun.LaunchLocal(opts.netDaemons(), e.exe)
		}
		if err != nil {
			return Result{}, err
		}
		h.cl = cl
		e.met.cPoolBuild.Inc()
	} else {
		e.met.cPoolReuse.Inc()
	}
	res, err := h.cl.RunJob(spec)
	if err != nil {
		if !errors.Is(err, netrun.ErrRejected) {
			// The control session is desynchronized; tear the fleet down so
			// the placement's next job launches a fresh one into this handle.
			h.cl.Close()
			h.cl = nil
		}
		return Result{}, err
	}
	return Result{Result: res.Result, Daemons: res.Daemons, Mesh: res.Mesh}, nil
}

// netCluster is one placement's persistent daemon fleet; its mutex
// serializes jobs on the shared control session. The handle lives in
// e.clusters as long as the engine (cl is nil between a failed job and the
// next launch), so Close reaches every fleet a submission ever started.
type netCluster struct {
	mu sync.Mutex
	cl *netrun.Cluster
}

// netClusterFor resolves the fleet a submission's placement names.
func (e *Engine) netClusterFor(opts Options) *netCluster {
	var key string
	if len(opts.NetJoin) > 0 {
		key = "join:" + strings.Join(opts.NetJoin, ",")
	} else {
		key = fmt.Sprintf("local:%d", opts.netDaemons())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	h, ok := e.clusters[key]
	if !ok {
		h = &netCluster{}
		e.clusters[key] = h
	}
	return h
}

// Drain stops admitting new jobs (ErrDraining) and blocks until every
// running and queued job has finished.
func (e *Engine) Drain() {
	e.mu.Lock()
	e.draining = true
	for e.running > 0 || len(e.queue) > 0 {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// Close drains the engine and tears down its net daemon fleets.
func (e *Engine) Close() {
	e.Drain()
	e.mu.Lock()
	clusters := e.clusters
	e.clusters = make(map[string]*netCluster)
	e.mu.Unlock()
	for _, h := range clusters {
		h.mu.Lock()
		if h.cl != nil {
			h.cl.Close()
			h.cl = nil
		}
		h.mu.Unlock()
	}
}
