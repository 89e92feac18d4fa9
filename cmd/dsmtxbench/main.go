// Command dsmtxbench regenerates the paper's evaluation (§5): every figure
// and table, printed as terminal tables and ASCII charts.
//
// Usage:
//
//	dsmtxbench -figure 4                 # all Fig. 4 panels + geomean
//	dsmtxbench -figure 4 -bench 164.gzip # one panel
//	dsmtxbench -figure 5a | -figure 5b | -figure 6 | -figure 1
//	dsmtxbench -figure r                 # resilience: speedup under injected faults
//	dsmtxbench -figure s                 # commit-shard sweep at 512-1024 cores
//	dsmtxbench -table 2
//	dsmtxbench -micro                    # §5.3 queue-vs-MPI bandwidth
//	dsmtxbench -all
//	dsmtxbench -quick                    # coarser core counts
//
// Experiment points (workload × cores × mode) are independent
// deterministic simulations, so every selected section starts at once,
// -parallel of them simulate at a time, and results are cached on disk,
// content-addressed by their full configuration plus a fingerprint of the
// simulator sources:
//
//	dsmtxbench -all -parallel 8          # simulate up to 8 points at once
//	dsmtxbench -all -parallel 1          # one at a time; output is byte-identical
//	dsmtxbench -all -cache /tmp/points   # reuse results across runs
//	dsmtxbench -all -cache ''            # always simulate
//
// Sections print in a fixed order. Figures and tables go to stdout;
// progress, logs and the scheduler summary go to stderr, so stdout stays
// machine-parseable.
//
// Host-side profiles (the simulator's own cost, not the simulated
// machine's) compose with any mode:
//
//	dsmtxbench -figure 4 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dsmtx/internal/cli"
	"dsmtx/internal/engine"
	"dsmtx/internal/expsched"
	"dsmtx/internal/harness"
	"dsmtx/internal/job"
	"dsmtx/internal/workloads"
)

// options are the parsed, validated command-line settings.
type options struct {
	figure   string
	table    int
	micro    bool
	manycore bool
	all      bool
	bench    string
	quick    bool
	coreArg  string
	rate     float64
	scale    int
	seed     uint64

	parallel int
	cacheDir string

	cpuprofile string
	memprofile string

	cores []int // resolved from quick/coreArg
}

// defaultCacheDir places the point cache under the user cache directory;
// empty (caching disabled by default) when that cannot be determined.
func defaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "dsmtxbench")
}

// parseFlags parses and validates args (without the program name).
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("dsmtxbench", flag.ContinueOnError)
	fs.StringVar(&o.figure, "figure", "", "figure to regenerate: 1, 3, 4, 5a, 5b, 6, r (resilience) or s (commit sharding)")
	fs.IntVar(&o.table, "table", 0, "table to regenerate: 2")
	fs.BoolVar(&o.micro, "micro", false, "run the §5.3 queue-vs-MPI micro-benchmark")
	fs.BoolVar(&o.manycore, "manycore", false, "run the §7 coherence-free manycore comparison")
	fs.BoolVar(&o.all, "all", false, "regenerate everything")
	fs.StringVar(&o.bench, "bench", "", "restrict to one benchmark (or \"geomean\")")
	fs.BoolVar(&o.quick, "quick", false, "coarse core counts (8,16,32,64,96,128)")
	fs.StringVar(&o.coreArg, "cores", "", "comma-separated core counts (overrides -quick)")
	fs.Float64Var(&o.rate, "rate", 0.001, "misspeculation rate for figure 6")
	def := workloads.DefaultInput()
	fs.IntVar(&o.scale, "scale", def.Scale, "problem-size multiplier")
	fs.Uint64Var(&o.seed, "seed", def.Seed, "input generation seed")

	fs.IntVar(&o.parallel, "parallel", runtime.GOMAXPROCS(0), "experiment points to simulate at once (1 = one at a time)")
	fs.StringVar(&o.cacheDir, "cache", defaultCacheDir(), "directory for the content-addressed point-result cache (\"\" disables)")

	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if len(fs.Args()) > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	switch o.figure {
	case "", "1", "3", "4", "5a", "5b", "6", "r", "s":
	default:
		return nil, fmt.Errorf("unknown -figure %q (have 1, 3, 4, 5a, 5b, 6, r, s)", o.figure)
	}
	if o.table != 0 && o.table != 2 {
		return nil, fmt.Errorf("unknown -table %d (have 2)", o.table)
	}
	if o.bench != "" && o.bench != "geomean" {
		if _, err := workloads.ByName(o.bench); err != nil {
			return nil, err
		}
	}

	o.cores = harness.DefaultCores()
	if o.quick {
		o.cores = harness.QuickCores()
	}
	if o.coreArg != "" {
		o.cores = nil
		for _, f := range strings.Split(o.coreArg, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("bad -cores: %v", err)
			}
			if c < 1 {
				return nil, fmt.Errorf("bad -cores: %d is not a positive core count", c)
			}
			o.cores = append(o.cores, c)
		}
	}
	return o, nil
}

func main() {
	cli.Main("dsmtxbench", parseFlags, func(o *options) error { return run(o, os.Stdout, os.Stderr) })
}

// run executes the selected sections. Figures and tables are written to
// stdout only; progress and diagnostics go to stderr.
func run(o *options, stdout, stderr io.Writer) error {
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memprofile != "" {
		defer func() {
			f, err := os.Create(o.memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "dsmtxbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "dsmtxbench: -memprofile: %v\n", err)
			}
		}()
	}

	in := workloads.Input{Scale: o.scale, Seed: o.seed}
	runner := newRunner(o, stderr)
	secs := sections(o, runner, in)
	if len(secs) == 0 {
		return fmt.Errorf("nothing selected; use -all, -figure, -table, -micro or -manycore")
	}
	start := time.Now()
	if err := render(secs, stdout); err != nil {
		return err
	}
	if s := runner.Stats(); s.Computed+s.CacheHits > 0 {
		fmt.Fprintf(stderr, "dsmtxbench: sweep workers=%d points=%d computed=%d cached=%d elapsed=%s\n",
			runner.Workers, s.Computed+s.CacheHits, s.Computed, s.CacheHits,
			time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// newRunner wires the experiment scheduler: worker count, the
// content-addressed cache (none when -cache is empty) and progress to
// stderr.
func newRunner(o *options, stderr io.Writer) *harness.Runner {
	r := &harness.Runner{Workers: max(o.parallel, 1), Cache: engine.OpenResultCache(o.cacheDir, stderr)}
	n := 0 // the Runner serializes Progress calls
	r.Progress = func(spec job.Spec, source string) {
		n++
		fmt.Fprintf(stderr, "dsmtxbench: [%d] %s (%s)\n", n, spec, source)
	}
	return r
}

// A section renders one figure or table as the text printed for it.
type section func() (string, error)

// sections lists the selected sections in their print order.
func sections(o *options, r *harness.Runner, in workloads.Input) []section {
	var secs []section
	add := func(on bool, s section) {
		if on {
			secs = append(secs, s)
		}
	}
	add(o.all || o.figure == "1", func() (string, error) { return figure1(), nil })
	add(o.all || o.table == 2, func() (string, error) { return harness.RenderTable2(), nil })
	add(o.all || o.micro, func() (string, error) { return harness.RenderMicro(harness.RunMicroQueue()), nil })
	add(o.all || o.figure == "3", func() (string, error) {
		res, err := harness.RunFigure3()
		return harness.RenderFigure3(res), err
	})
	add(o.all || o.manycore, func() (string, error) { return manycore(r, in, o.bench) })
	add(o.all || o.figure == "4", func() (string, error) { return figure4(r, in, o.cores, o.bench) })
	add(o.all || o.figure == "5a", func() (string, error) { return figure5a(r, in, o.bench) })
	add(o.all || o.figure == "5b", func() (string, error) { return figure5b(r, in, o.bench) })
	add(o.all || o.figure == "6", func() (string, error) { return figure6(r, in, o.rate, o.cores) })
	add(o.all || o.figure == "r", func() (string, error) { return figureR(r, in) })
	add(o.all || o.figure == "s", func() (string, error) { return figureS(r, in) })
	return secs
}

// render starts every section at once and prints each, in order, once it
// and the sections before it are done. After a section fails it prints
// nothing more, waits for the rest, and returns that section's error.
func render(secs []section, stdout io.Writer) error {
	type rendered struct {
		text string
		err  error
	}
	done := make([]chan rendered, len(secs))
	for i, s := range secs {
		done[i] = make(chan rendered, 1)
		go func() {
			text, err := s()
			done[i] <- rendered{text, err}
		}()
	}
	var err error
	for _, c := range done {
		out := <-c
		if err == nil && out.err != nil {
			err = out.err
		}
		if err == nil {
			fmt.Fprintln(stdout, out.text)
		}
	}
	return err
}

// selected resolves the benchmark filter; bench is pre-validated by
// parseFlags.
func selected(name string) []*workloads.Benchmark {
	if name == "" || name == "geomean" {
		return workloads.All()
	}
	b, err := workloads.ByName(name)
	if err != nil {
		return nil
	}
	return []*workloads.Benchmark{b}
}

// manycoreNames are the benchmarks the §7 comparison covers, honoring
// the -bench filter.
func manycoreNames(bench string) []string {
	if bench != "" && bench != "geomean" {
		return []string{bench}
	}
	return []string{"456.hmmer", "crc32", "blackscholes"}
}

// fig6Cores applies the Fig. 6 core-count policy: a full sweep collapses
// to the paper's four counts.
func fig6Cores(cores []int) []int {
	if len(cores) > 4 {
		return []int{32, 64, 96, 128} // the paper's Fig. 6 core counts
	}
	return cores
}

// grid runs cell for every benchmark name × core count at once and returns
// the cells in row-major order.
func grid[T any](names []string, cores []int, cell func(b *workloads.Benchmark, cores int) (T, error)) ([]T, error) {
	n := len(names) * len(cores)
	return expsched.Map(n, func(i int) (T, error) {
		b, err := workloads.ByName(names[i/len(cores)])
		if err != nil {
			var zero T
			return zero, err
		}
		return cell(b, cores[i%len(cores)])
	})
}

func figure1() string {
	var results []harness.Fig1Result
	for _, lat := range []int{1, 2, 4, 8} {
		results = append(results, harness.RunFigure1(lat))
	}
	return harness.RenderFigure1(results)
}

func manycore(r *harness.Runner, in workloads.Input, bench string) (string, error) {
	rows, err := grid(manycoreNames(bench), []int{48}, func(b *workloads.Benchmark, _ int) (harness.ManycoreRow, error) {
		return r.RunManycore(b, in)
	})
	return harness.RenderManycore(rows), err
}

func figure4(r *harness.Runner, in workloads.Input, cores []int, bench string) (string, error) {
	bs := selected(bench)
	series, err := expsched.Map(len(bs), func(i int) (harness.Fig4Series, error) {
		return r.RunFigure4(bs[i], in, cores)
	})
	if err != nil {
		return "", err
	}
	var blocks []string
	if bench != "geomean" {
		for _, s := range series {
			blocks = append(blocks, harness.RenderFigure4(s))
		}
	}
	if bench == "" || bench == "geomean" {
		blocks = append(blocks, harness.RenderGeomean(harness.Geomean(series)))
	}
	return strings.Join(blocks, "\n"), nil
}

func figure5a(r *harness.Runner, in workloads.Input, bench string) (string, error) {
	bs := selected(bench)
	rows, err := expsched.Map(len(bs), func(i int) (harness.Fig5aRow, error) {
		return r.RunFigure5a(bs[i], in)
	})
	return harness.RenderFigure5a(rows), err
}

func figure5b(r *harness.Runner, in workloads.Input, bench string) (string, error) {
	bs := selected(bench)
	rows, err := expsched.Map(len(bs), func(i int) (harness.Fig5bRow, error) {
		return r.RunFigure5b(bs[i], in, 128)
	})
	return harness.RenderFigure5b(rows), err
}

func figure6(r *harness.Runner, in workloads.Input, rate float64, cores []int) (string, error) {
	rows, err := grid(harness.Fig6Benches(), fig6Cores(cores), func(b *workloads.Benchmark, c int) (harness.Fig6Row, error) {
		return r.RunFigure6(b, in, rate, c)
	})
	return harness.RenderFigure6(rows), err
}

func figureR(r *harness.Runner, in workloads.Input) (string, error) {
	rows, err := grid(harness.FigRBenches(), harness.FigRCores(), func(b *workloads.Benchmark, c int) (harness.FigRRow, error) {
		return r.RunFigureR(b, in, c)
	})
	return harness.RenderFigureR(rows), err
}

func figureS(r *harness.Runner, in workloads.Input) (string, error) {
	rows, err := grid(harness.FigSBenches(), harness.FigSCores(), func(b *workloads.Benchmark, c int) (harness.FigSRow, error) {
		return r.RunFigureS(b, in, c)
	})
	return harness.RenderFigureS(rows), err
}
