package workloads

import (
	"fmt"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
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

// ParseParadigm resolves a paradigm by its String name: the one parser
// behind a job spec's Paradigm and dsmtxrun's -paradigm flag.
func ParseParadigm(name string) (Paradigm, error) {
	for _, p := range []Paradigm{DSMTX, TLS} {
		if name == p.String() {
			return p, nil
		}
	}
	return DSMTX, fmt.Errorf("unknown paradigm %q (have DSMTX, TLS)", name)
}

// Result is the record of one benchmark execution: the core totals summed
// over its chained invocations plus the output checksum — the same record
// on every backend. Durations are virtual nanoseconds under the vtime
// backend and wall-clock nanoseconds under host and net.
type Result struct {
	core.Result
	Checksum uint64
	// Stalls aggregates per-rank stall attribution across invocations when
	// the run was tuned with a core.Config.Tracer; empty otherwise. It is
	// in-process observability, never serialized: the record the engine
	// caches and serves is every other field.
	Stalls trace.StallReport `json:"-"`
}

// Chain is a benchmark's invocation chain: invocation inv's program runs on
// the memory image invocation inv-1 committed (e.g. training epochs), and
// the last one's checksum is the execution's. Every execution — parallel on
// any backend, a net daemon's share of one, the sequential reference — walks
// its invocations through one.
type Chain struct {
	b    *Benchmark
	in   Input
	inv  int        // next invocation to run
	img  *mem.Image // what the previous invocation committed (nil before the first)
	last Program    // the previous invocation's program
}

// NewChain starts b's chain on the given input.
func NewChain(b *Benchmark, in Input) *Chain { return &Chain{b: b, in: in} }

// Invocations reports how many steps the chain has (>= 1).
func (c *Chain) Invocations() int { return max(c.b.Invocations, 1) }

// program builds invocation inv's program for the paradigm.
func (c *Chain) program(paradigm Paradigm, inv int) Program {
	if paradigm == TLS {
		return c.b.NewTLS(c.in, inv)
	}
	return c.b.NewDSMTX(c.in, inv)
}

// Plan reports the parallelization scheme the chain's programs are written
// for under the paradigm — what a core.Config for it must be laid out on.
func (c *Chain) Plan(paradigm Paradigm) pipeline.Plan { return c.program(paradigm, 0).Plan() }

// next builds the next invocation's program, hands run the image the
// previous invocation committed, and keeps the image run returns for the
// one after.
func (c *Chain) next(paradigm Paradigm, run func(prog Program, img *mem.Image) (*mem.Image, error)) error {
	prog := c.program(paradigm, c.inv)
	img, err := run(prog, c.img)
	if err != nil {
		return fmt.Errorf("%s/%s inv %d: %w", c.b.Name, paradigm, c.inv, err)
	}
	c.img, c.last = img, prog
	c.inv++
	return nil
}

// Step runs the next invocation in parallel on the given core count and
// folds its outcome into agg. tune, if non-nil, may adjust the invocation's
// runtime configuration (e.g. queue batch sizes for the Fig. 5b comparison,
// or the backend).
func (c *Chain) Step(agg *Result, paradigm Paradigm, cores int, tune func(*core.Config)) error {
	return c.next(paradigm, func(prog Program, img *mem.Image) (*mem.Image, error) {
		cfg := core.DefaultConfig(cores, prog.Plan())
		if tune != nil {
			tune(&cfg)
		}
		sys, err := core.NewSystem(cfg, prog, img)
		if err != nil {
			return nil, err
		}
		res, err := sys.Run()
		if err != nil {
			return nil, err
		}
		agg.Add(res)
		agg.Stalls.Merge(sys.StallReport())
		return sys.CommitImage(), nil
	})
}

// Checksum summarizes the output the last invocation run left in committed
// memory.
func (c *Chain) Checksum() uint64 { return c.last.Checksum(c.img) }

// RunParallel executes the benchmark under DSMTX with the chosen paradigm
// on the given core count, chaining invocations through committed memory.
// tune, if non-nil, may adjust each invocation's runtime configuration
// (e.g. queue batch sizes for the Fig. 5b comparison).
func RunParallel(b *Benchmark, in Input, paradigm Paradigm, cores int, tune func(*core.Config)) (Result, error) {
	var agg Result
	c := NewChain(b, in)
	for range c.Invocations() {
		if err := c.Step(&agg, paradigm, cores, tune); err != nil {
			return Result{}, err
		}
	}
	agg.Checksum = c.Checksum()
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
	c := NewChain(b, in)
	for range c.Invocations() {
		err := c.next(DSMTX, func(prog Program, img *mem.Image) (*mem.Image, error) {
			// Any valid (unused) core count does for sequential cost accounting.
			cfg := core.DefaultConfig(prog.Plan().MinWorkers()+2, prog.Plan())
			if tune != nil {
				tune(&cfg)
			}
			elapsed, out, err := core.RunSequential(cfg, prog, prog.Iterations(), img)
			if err != nil {
				return nil, fmt.Errorf("sequential reference: %w", err)
			}
			total += elapsed
			return out, nil
		})
		if err != nil {
			return 0, 0, err
		}
	}
	return total, c.Checksum(), nil
}
