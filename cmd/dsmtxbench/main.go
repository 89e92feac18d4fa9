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
// deterministic simulations, so they are scheduled across host CPUs and
// cached on disk, content-addressed by their full configuration plus a
// fingerprint of the simulator sources:
//
//	dsmtxbench -all -parallel 8          # fan points over 8 host CPUs
//	dsmtxbench -all -parallel 1          # sequential; output is byte-identical
//	dsmtxbench -all -cache /tmp/points   # reuse results across runs
//	dsmtxbench -all -cache-off           # always simulate
//
// Figures and tables go to stdout; progress, logs and the scheduler
// summary go to stderr, so stdout stays machine-parseable.
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
	"dsmtx/internal/harness"
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
	cacheOff bool

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
	fs.IntVar(&o.scale, "scale", 1, "problem-size multiplier")
	fs.Uint64Var(&o.seed, "seed", 42, "input generation seed")

	fs.IntVar(&o.parallel, "parallel", runtime.GOMAXPROCS(0), "host CPUs to schedule experiment points across (1 = sequential)")
	fs.StringVar(&o.cacheDir, "cache", defaultCacheDir(), "directory for the content-addressed point-result cache (\"\" disables)")
	fs.BoolVar(&o.cacheOff, "cache-off", false, "disable the point-result cache")

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

	start := time.Now()
	specs := prefetchSpecs(o, in)
	if len(specs) > 0 && runner.Workers > 1 {
		if err := runner.Prefetch(specs); err != nil {
			return err
		}
	}

	ran := false
	if o.all || o.figure == "1" {
		runFigure1(stdout)
		ran = true
	}
	if o.all || o.table == 2 {
		fmt.Fprintln(stdout, harness.RenderTable2())
		ran = true
	}
	if o.all || o.micro {
		res, err := runner.RunMicroQueue()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, harness.RenderMicro(res))
		ran = true
	}
	if o.all || o.figure == "3" {
		r, err := harness.RunFigure3()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, harness.RenderFigure3(r))
		ran = true
	}
	if o.all || o.manycore {
		if err := runManycore(runner, in, o.bench, stdout); err != nil {
			return err
		}
		ran = true
	}
	if o.all || o.figure == "4" {
		if err := runFigure4(runner, in, o.cores, o.bench, stdout); err != nil {
			return err
		}
		ran = true
	}
	if o.all || o.figure == "5a" {
		if err := runFigure5a(runner, in, o.bench, stdout); err != nil {
			return err
		}
		ran = true
	}
	if o.all || o.figure == "5b" {
		if err := runFigure5b(runner, in, o.bench, stdout); err != nil {
			return err
		}
		ran = true
	}
	if o.all || o.figure == "6" {
		if err := runFigure6(runner, in, o.rate, o.cores, stdout); err != nil {
			return err
		}
		ran = true
	}
	if o.all || o.figure == "r" {
		if err := runFigureR(runner, in, stdout); err != nil {
			return err
		}
		ran = true
	}
	if o.all || o.figure == "s" {
		if err := runFigureS(runner, in, stdout); err != nil {
			return err
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("nothing selected; use -all, -figure, -table, -micro or -manycore")
	}
	if s := runner.Stats(); s.Computed+s.CacheHits > 0 {
		fmt.Fprintf(stderr, "dsmtxbench: sweep workers=%d points=%d computed=%d cached=%d elapsed=%s\n",
			runner.Workers, s.Computed+s.CacheHits, s.Computed, s.CacheHits,
			time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// newRunner wires the experiment scheduler: worker count, the
// content-addressed cache (unless disabled) and progress to stderr.
func newRunner(o *options, stderr io.Writer) *harness.Runner {
	r := &harness.Runner{Workers: o.parallel}
	if r.Workers < 1 {
		r.Workers = 1
	}
	if !o.cacheOff {
		r.Cache = engine.OpenResultCache(o.cacheDir, stderr)
	}
	r.Progress = func(done, total int, spec engine.JobSpec, source string) {
		fmt.Fprintf(stderr, "dsmtxbench: [%d/%d] %s (%s)\n", done, total, spec, source)
	}
	return r
}

// prefetchSpecs enumerates every engine job the selected sections will
// resolve, in a deterministic order, for the parallel fan-out. (The §5.3
// micro measurements are not engine jobs; they take a quarter second and
// resolve on demand.)
func prefetchSpecs(o *options, in workloads.Input) []engine.JobSpec {
	var specs []engine.JobSpec
	if o.all || o.manycore {
		for _, name := range manycoreNames(o.bench) {
			if b, err := workloads.ByName(name); err == nil {
				specs = append(specs, harness.PointsManycore(b, in)...)
			}
		}
	}
	if o.all || o.figure == "4" {
		for _, b := range selected(o.bench) {
			specs = append(specs, harness.PointsFigure4(b, in, o.cores)...)
		}
	}
	if o.all || o.figure == "5a" {
		for _, b := range selected(o.bench) {
			specs = append(specs, harness.PointsFigure5a(b, in)...)
		}
	}
	if o.all || o.figure == "5b" {
		for _, b := range selected(o.bench) {
			specs = append(specs, harness.PointsFigure5b(b, in, 128)...)
		}
	}
	if o.all || o.figure == "6" {
		for _, name := range harness.Fig6Benches() {
			b, err := workloads.ByName(name)
			if err != nil {
				continue
			}
			for _, c := range fig6Cores(o.cores) {
				specs = append(specs, harness.PointsFigure6(b, in, o.rate, c)...)
			}
		}
	}
	if o.all || o.figure == "r" {
		// The crash points are absent here by design: their fault plans
		// derive from the clean runs' elapsed times, so RunFigureR resolves
		// them on demand (still through the result cache).
		for _, name := range harness.FigRBenches() {
			b, err := workloads.ByName(name)
			if err != nil {
				continue
			}
			for _, c := range harness.FigRCores() {
				specs = append(specs, harness.PointsFigureR(b, in, c)...)
			}
		}
	}
	if o.all || o.figure == "s" {
		for _, name := range harness.FigSBenches() {
			b, err := workloads.ByName(name)
			if err != nil {
				continue
			}
			for _, c := range harness.FigSCores() {
				specs = append(specs, harness.PointsFigureS(b, in, c)...)
			}
		}
	}
	return specs
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

func runManycore(r *harness.Runner, in workloads.Input, bench string, stdout io.Writer) error {
	var rows []harness.ManycoreRow
	for _, name := range manycoreNames(bench) {
		b, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		row, err := r.RunManycore(b, in)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(stdout, harness.RenderManycore(rows))
	return nil
}

func runFigure1(stdout io.Writer) {
	var results []harness.Fig1Result
	for _, lat := range []int{1, 2, 4, 8} {
		results = append(results, harness.RunFigure1(lat))
	}
	fmt.Fprintln(stdout, harness.RenderFigure1(results))
}

func runFigure4(r *harness.Runner, in workloads.Input, cores []int, bench string, stdout io.Writer) error {
	var series []harness.Fig4Series
	for _, b := range selected(bench) {
		s, err := r.RunFigure4(b, in, cores)
		if err != nil {
			return err
		}
		if bench != "geomean" {
			fmt.Fprintln(stdout, harness.RenderFigure4(s))
		}
		series = append(series, s)
	}
	if bench == "" || bench == "geomean" {
		fmt.Fprintln(stdout, harness.RenderGeomean(harness.Geomean(series)))
	}
	return nil
}

func runFigure5a(r *harness.Runner, in workloads.Input, bench string, stdout io.Writer) error {
	var rows []harness.Fig5aRow
	for _, b := range selected(bench) {
		row, err := r.RunFigure5a(b, in)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(stdout, harness.RenderFigure5a(rows))
	return nil
}

func runFigure5b(r *harness.Runner, in workloads.Input, bench string, stdout io.Writer) error {
	var rows []harness.Fig5bRow
	for _, b := range selected(bench) {
		row, err := r.RunFigure5b(b, in, 128)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(stdout, harness.RenderFigure5b(rows))
	return nil
}

func runFigure6(r *harness.Runner, in workloads.Input, rate float64, cores []int, stdout io.Writer) error {
	var rows []harness.Fig6Row
	for _, name := range harness.Fig6Benches() {
		b, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		for _, c := range fig6Cores(cores) {
			row, err := r.RunFigure6(b, in, rate, c)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
	}
	fmt.Fprintln(stdout, harness.RenderFigure6(rows))
	return nil
}

func runFigureR(r *harness.Runner, in workloads.Input, stdout io.Writer) error {
	var rows []harness.FigRRow
	for _, name := range harness.FigRBenches() {
		b, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		for _, c := range harness.FigRCores() {
			row, err := r.RunFigureR(b, in, c)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
	}
	fmt.Fprintln(stdout, harness.RenderFigureR(rows))
	return nil
}

func runFigureS(r *harness.Runner, in workloads.Input, stdout io.Writer) error {
	var rows []harness.FigSRow
	for _, name := range harness.FigSBenches() {
		b, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		for _, c := range harness.FigSCores() {
			row, err := r.RunFigureS(b, in, c)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
	}
	fmt.Fprintln(stdout, harness.RenderFigureS(rows))
	return nil
}
