package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dsmtx/internal/engine"
	"dsmtx/internal/expsched"
	"dsmtx/internal/platform"
	"dsmtx/internal/workloads"
)

// A Runner is the figure sweeps' client of the job engine. Every figure
// cell is an engine.JobSpec and every outcome an engine.Result; the engine
// owns execution and the content-addressed result cache. The Runner adds
// only what a sweep needs on top: Prefetch fans a deduplicated job list
// across Workers host CPUs, and a memo keeps the results so the figure
// methods can then replay them in their original sequential order —
// every job is an independent deterministic simulation, so all rendered
// output is byte-identical to a Workers=1 run.
//
// The zero value is a sequential, uncached runner.
type Runner struct {
	// Workers bounds concurrent simulations during Prefetch; <= 1 runs
	// sequentially.
	Workers int
	// Cache, when non-nil, is handed to the engine as its result store
	// (and holds the §5.3 micro measurements under their mechanism names).
	Cache *expsched.Cache
	// Progress, when non-nil, is called after each Prefetch job with how
	// it was satisfied (the Result.Source: "run" or "cache"). Calls are
	// serialized.
	Progress func(done, total int, spec engine.JobSpec, source string)

	mu    sync.Mutex
	memo  map[engine.JobSpec]engine.Result
	micro map[string]float64 // §5.3 mechanism → MB/s
	stats RunnerStats

	engOnce sync.Once
	eng     *engine.Engine
}

// engine lazily builds the job engine every simulation routes through.
// Admission is unbounded: Prefetch's worker pool already bounds the
// harness's concurrency.
func (r *Runner) engine() *engine.Engine {
	r.engOnce.Do(func() { r.eng = engine.New(engine.Config{Cache: r.Cache}) })
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

// countLocked books one first-time resolution by its Result.Source.
func (r *Runner) countLocked(source string) {
	if source == "cache" {
		r.stats.CacheHits++
	} else {
		r.stats.Computed++
	}
}

// resolve satisfies one job: memo, then the engine (cache, then
// simulation). Result.Source says which: "memo", "cache" or "run".
func (r *Runner) resolve(spec engine.JobSpec) (engine.Result, error) {
	spec = spec.Normalized()
	r.mu.Lock()
	if res, ok := r.memo[spec]; ok {
		r.stats.MemoHits++
		r.mu.Unlock()
		res.Source = "memo"
		return res, nil
	}
	r.mu.Unlock()

	res, err := r.engine().Submit(context.Background(), spec)
	if err != nil {
		return engine.Result{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.memo == nil {
		r.memo = make(map[engine.JobSpec]engine.Result)
	}
	r.memo[spec] = res
	r.countLocked(res.Source)
	return res, nil
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

// runParallel resolves one parallel figure cell.
func (r *Runner) runParallel(b *workloads.Benchmark, in workloads.Input, paradigm workloads.Paradigm, cores int, knob string) (workloads.Result, error) {
	return r.runPoint(parJob(b.Name, in, paradigm, cores, knob))
}

// runPoint resolves an arbitrary parallel job (Figures R and S build specs
// directly: fault plans and shard counts are part of the job identity).
func (r *Runner) runPoint(spec engine.JobSpec) (workloads.Result, error) {
	res, err := r.resolve(spec)
	return res.Result, err
}

// runSequential resolves one sequential reference.
func (r *Runner) runSequential(b *workloads.Benchmark, in workloads.Input, knob string) (platform.Duration, uint64, error) {
	res, err := r.resolve(seqJob(b.Name, in, knob))
	return res.SeqTime, res.SeqCheck, err
}

// Prefetch resolves every given job, deduplicated, across the worker
// pool. Afterwards the figure methods replay against the warm memo in
// their original order, so rendering stays deterministic byte-for-byte.
func (r *Runner) Prefetch(specs []engine.JobSpec) error {
	seen := make(map[engine.JobSpec]bool, len(specs))
	var uniq []engine.JobSpec
	for _, s := range specs {
		if s = s.Normalized(); !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	var done atomic.Int64
	var progressMu sync.Mutex
	_, err := expsched.Map(r.Workers, len(uniq), func(i int) (struct{}, error) {
		res, err := r.resolve(uniq[i])
		if err != nil {
			return struct{}{}, fmt.Errorf("%s: %w", uniq[i], err)
		}
		if r.Progress != nil {
			n := int(done.Add(1))
			progressMu.Lock()
			r.Progress(n, len(uniq), uniq[i], res.Source)
			progressMu.Unlock()
		}
		return struct{}{}, nil
	})
	return err
}
