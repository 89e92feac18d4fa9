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
// owns execution, admission and the content-addressed result cache. Each
// figure's Run method names its jobs once and hands them to resolveAll,
// which submits them together and returns the results in order. The
// engine simulates at most Workers jobs at a time, and a memo keeps every
// result so jobs that figures share (the sequential references, Fig. 6's
// clean runs) are resolved once. Every job is an independent
// deterministic simulation, so all rendered output is byte-identical at
// any Workers.
//
// The zero value is a sequential, uncached runner.
type Runner struct {
	// Workers bounds how many jobs simulate at once; <= 1 runs one at a
	// time.
	Workers int
	// Cache, when non-nil, is handed to the engine as its result store
	// (and holds the §5.3 micro measurements under their mechanism names).
	Cache *expsched.Cache
	// Progress, when non-nil, is called once per job the engine resolved,
	// with how it was satisfied (the Result.Source: "run" or "cache").
	// Calls are serialized.
	Progress func(spec engine.JobSpec, source string)

	mu    sync.Mutex
	memo  map[engine.JobSpec]*memoEntry
	micro map[string]float64 // §5.3 mechanism → MB/s
	stats RunnerStats

	progressMu sync.Mutex

	engOnce sync.Once
	eng     *engine.Engine
}

// memoEntry is one job's result; done closes when it is set, so a repeat
// request for a job still in the engine waits here without holding an
// admission slot.
type memoEntry struct {
	done chan struct{}
	res  engine.Result
	err  error
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

// RunnerStats counts how jobs (and micro measurements) were satisfied.
type RunnerStats struct {
	Computed  int // simulations actually run
	CacheHits int // satisfied from the result cache
	MemoHits  int // repeat requests satisfied from the in-process memo
}

// Stats returns a snapshot of the counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// countLocked books one first-time resolution by its Result.Source. A
// "coalesced" result is another submission's simulation, so it counts as
// a memo hit, not a computation.
func (r *Runner) countLocked(source string) {
	switch source {
	case "run":
		r.stats.Computed++
	case "cache":
		r.stats.CacheHits++
	default:
		r.stats.MemoHits++
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

// resolve satisfies one job: memo, then the engine (cache, then
// simulation). Result.Source says which: "memo", "cache" or "run".
func (r *Runner) resolve(spec engine.JobSpec) (engine.Result, error) {
	spec = spec.Normalized()
	r.mu.Lock()
	if e, ok := r.memo[spec]; ok {
		r.stats.MemoHits++
		r.mu.Unlock()
		<-e.done
		res := e.res
		res.Source = "memo"
		return res, e.err
	}
	if r.memo == nil {
		r.memo = make(map[engine.JobSpec]*memoEntry)
	}
	e := &memoEntry{done: make(chan struct{})}
	r.memo[spec] = e
	r.mu.Unlock()

	e.res, e.err = r.engine().Submit(context.Background(), spec)
	r.mu.Lock()
	if e.err != nil {
		delete(r.memo, spec) // a later request retries
	} else {
		r.countLocked(e.res.Source)
	}
	r.mu.Unlock()
	close(e.done)
	if e.err == nil && r.Progress != nil {
		r.progressMu.Lock()
		r.Progress(spec, e.res.Source)
		r.progressMu.Unlock()
	}
	return e.res, e.err
}

// resolveMicro satisfies one §5.3 bandwidth measurement. These are not
// engine jobs (no workload, no DSMTX system), so the Runner memoizes them
// itself and keys the cache by the bare mechanism name.
func (r *Runner) resolveMicro(mechanism string) (float64, error) {
	r.mu.Lock()
	if mbps, ok := r.micro[mechanism]; ok {
		r.stats.MemoHits++
		r.mu.Unlock()
		return mbps, nil
	}
	r.mu.Unlock()

	var mbps float64
	source := "run"
	if r.Cache != nil {
		// Like the engine, treat an unreadable entry as a miss.
		if hit, _ := r.Cache.Get(mechanism, &mbps); hit {
			source = "cache"
		}
	}
	if source == "run" {
		var err error
		if mbps, err = microBandwidth(mechanism); err != nil {
			return 0, err
		}
		if r.Cache != nil {
			_ = r.Cache.Put(mechanism, mbps) // a failed write only costs a rerun
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.micro == nil {
		r.micro = make(map[string]float64)
	}
	r.micro[mechanism] = mbps
	r.countLocked(source)
	return mbps, nil
}
