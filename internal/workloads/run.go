package workloads

import (
	"fmt"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/platform"
	"dsmtx/internal/trace"
)

// Paradigm selects which parallelization of a benchmark to run.
type Paradigm int

// The two parallelization families the paper compares.
const (
	DSMTX Paradigm = iota
	TLS
)

func (p Paradigm) String() string {
	if p == TLS {
		return "TLS"
	}
	return "DSMTX"
}

// Result aggregates a benchmark execution across its invocations.
// Durations are virtual nanoseconds under the vtime backend and wall-clock
// nanoseconds under host.
type Result struct {
	Elapsed   platform.Duration
	Checksum  uint64
	Committed uint64
	Misspecs  uint64
	ERM, FLQ  platform.Duration
	SEQ, RFP  platform.Duration
	Bytes     uint64 // total wire traffic
	Events    uint64
	// Crash-fault resilience totals (zero without a fault plan): worker
	// crashes survived and the wall time spent re-dispatching after them.
	Crashes    uint64
	Redispatch platform.Duration
	// Traffic breaks the wire total down by message class (queue batches,
	// Copy-On-Access pages, control); its Bytes field equals the Bytes
	// total above.
	Traffic platform.TrafficStats
	// Stalls aggregates per-rank stall attribution across invocations when
	// the run was tuned with a core.Config.Tracer; empty otherwise. It is
	// in-process observability, never serialized: the record the engine
	// caches and serves is every other field.
	Stalls trace.StallReport `json:"-"`
}

// Bandwidth reports wire bytes per second of execution.
func (r Result) Bandwidth() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds()
}

// RunParallel executes the benchmark under DSMTX with the chosen paradigm
// on the given core count, chaining invocations through committed memory.
// tune, if non-nil, may adjust each invocation's runtime configuration
// (e.g. queue batch sizes for the Fig. 5b comparison).
func RunParallel(b *Benchmark, in Input, paradigm Paradigm, cores int, tune func(*core.Config)) (Result, error) {
	var agg Result
	var img *mem.Image
	invocations := b.Invocations
	if invocations < 1 {
		invocations = 1
	}
	for inv := 0; inv < invocations; inv++ {
		var prog Program
		if paradigm == TLS {
			prog = b.NewTLS(in, inv)
		} else {
			prog = b.NewDSMTX(in, inv)
		}
		cfg := core.DefaultConfig(cores, prog.Plan())
		if tune != nil {
			tune(&cfg)
		}
		sys, err := core.NewSystem(cfg, prog, img)
		if err != nil {
			return Result{}, fmt.Errorf("%s/%s: %w", b.Name, paradigm, err)
		}
		res, err := sys.Run()
		if err != nil {
			return Result{}, fmt.Errorf("%s/%s inv %d: %w", b.Name, paradigm, inv, err)
		}
		img = sys.CommitImage()
		agg.Elapsed += res.Elapsed
		agg.Committed += res.Committed
		agg.Misspecs += res.Misspecs
		agg.ERM += res.ERM
		agg.FLQ += res.FLQ
		agg.SEQ += res.SEQ
		agg.RFP += res.RFP
		agg.Bytes += res.Traffic.Bytes
		agg.Events += res.Events
		agg.Crashes += res.Crashes
		agg.Redispatch += res.Redispatch
		agg.Traffic.Add(res.Traffic)
		agg.Stalls.Merge(sys.StallReport())
		if inv == invocations-1 {
			agg.Checksum = prog.Checksum(img)
		}
	}
	return agg, nil
}

// RunSequentialRef executes the benchmark's sequential reference (the
// original single-threaded program with the same cost model) and reports
// its elapsed virtual time and output checksum.
func RunSequentialRef(b *Benchmark, in Input) (platform.Duration, uint64, error) {
	return RunSequentialTuned(b, in, nil)
}

// RunSequentialTuned is RunSequentialRef with a configuration hook, so
// machine-model comparisons (e.g. the §7 manycore) can measure their
// sequential baseline on the same machine as the parallel run.
func RunSequentialTuned(b *Benchmark, in Input, tune func(*core.Config)) (platform.Duration, uint64, error) {
	var total platform.Duration
	var img *mem.Image
	var check uint64
	invocations := b.Invocations
	if invocations < 1 {
		invocations = 1
	}
	for inv := 0; inv < invocations; inv++ {
		prog := b.NewDSMTX(in, inv)
		cfg := core.DefaultConfig(cores1(prog), prog.Plan())
		if tune != nil {
			tune(&cfg)
		}
		elapsed, out, err := core.RunSequential(cfg, prog, prog.Iterations(), img)
		if err != nil {
			return 0, 0, fmt.Errorf("%s sequential inv %d: %w", b.Name, inv, err)
		}
		total += elapsed
		img = out
		if inv == invocations-1 {
			check = prog.Checksum(img)
		}
	}
	return total, check, nil
}

// cores1 picks a valid (unused) core count for sequential cost accounting.
func cores1(prog Program) int { return prog.Plan().MinWorkers() + 2 }
