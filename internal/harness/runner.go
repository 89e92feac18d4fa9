package harness

import (
	"context"
	"fmt"
	"math"
	"sync"

	"dsmtx/internal/engine"
	"dsmtx/internal/expsched"
)

// A Runner is the figure sweeps' client of the job engine. Every figure
// cell is an engine.JobSpec and every outcome an engine.Result; the engine
// owns execution, admission, the content-addressed result cache and the
// coalescing of duplicate in-flight jobs. Each figure's Run method names
// its jobs once and hands them to resolveAll, which submits them together
// and returns the results in order. The engine simulates at most Workers
// jobs at a time. Every job is an independent deterministic simulation, so
// all rendered output is byte-identical at any Workers.
//
// The zero value is a sequential, uncached runner.
type Runner struct {
	// Workers bounds how many jobs simulate at once; <= 1 runs one at a
	// time.
	Workers int
	// Cache, when non-nil, is handed to the engine as its result store.
	Cache *expsched.Cache
	// Progress, when non-nil, is called once per job request the engine
	// satisfied, with how (the Result.Source: "run", "cache" or
	// "coalesced"). Calls are serialized.
	Progress func(spec engine.JobSpec, source string)

	progressMu sync.Mutex

	engOnce sync.Once
	eng     *engine.Engine
}

// engine lazily builds the job engine every simulation routes through. Its
// admission is the Runner's one concurrency bound. A sweep queues every job
// it names at once, and the Runner is the engine's only client, so the
// queue is unbounded.
func (r *Runner) engine() *engine.Engine {
	r.engOnce.Do(func() {
		r.eng = engine.New(engine.Config{Cache: r.Cache, MaxConcurrent: max(r.Workers, 1), QueueDepth: math.MaxInt})
	})
	return r.eng
}

// RunnerStats counts how the engine satisfied the Runner's jobs.
type RunnerStats struct {
	Computed  int // simulations actually run
	CacheHits int // satisfied from the result cache
}

// Stats reads the engine's counters. A coalesced request shares another
// request's simulation, so it counts as neither.
func (r *Runner) Stats() RunnerStats {
	s := r.engine().Stats()
	return RunnerStats{
		Computed:  int(s.Completed - s.CacheHits - s.Coalesced),
		CacheHits: int(s.CacheHits),
	}
}

// resolveAll resolves every spec concurrently and returns the results in
// order.
func (r *Runner) resolveAll(specs ...engine.JobSpec) ([]engine.Result, error) {
	return expsched.Map(len(specs), func(i int) (engine.Result, error) {
		res, err := r.resolve(specs[i])
		if err != nil {
			return res, fmt.Errorf("%s: %w", specs[i], err)
		}
		return res, nil
	})
}

// resolve submits one job to the engine and reports it to Progress.
func (r *Runner) resolve(spec engine.JobSpec) (engine.Result, error) {
	res, err := r.engine().Submit(context.Background(), spec)
	if err == nil && r.Progress != nil {
		r.progressMu.Lock()
		r.Progress(spec, res.Source)
		r.progressMu.Unlock()
	}
	return res, err
}
