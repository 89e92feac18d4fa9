// Command bench is the repository's benchmark: four closed-loop workloads,
// end-to-end metrics measured with tracing off, and per-layer metrics from a
// separate traced run that times each layer from outside. See README.md.
//
//	bench -workload host-stream -seed 1 -seconds 15 -trace 0
//	bench -workload host-stream -seed 1 -seconds 15 -trace 1
//	bench -workload host-stream -seed 1 -seconds 15 -aa 10
//
// The last line of standard output is always the result object
// {"correct","attempted","failed","metrics"}; the exit status is non-zero
// on any correctness failure.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// options are the parsed command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	jobs     int
	aa       int
	probeMs  int
	dsmtxd   string
	workdir  string
	root     string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: host-stream, host-recover, net-loopback or serve-mix")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same job sequence")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the timed window on the sizing box; fixes the job count")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.IntVar(&o.jobs, "jobs", 0, "timed jobs to run (default: the workload's nominal rate times -seconds)")
	fs.IntVar(&o.aa, "aa", 0, "A/A mode: run the workload this many times on the same code and check every end-to-end metric repeats within its bound")
	fs.IntVar(&o.probeMs, "probe-ms", 200, "length of one slice of an isolated layer probe (each probe is the median of 5 slices)")
	fs.StringVar(&o.dsmtxd, "dsmtxd", "", "dsmtxd binary for daemons and the job server (default: next to this binary, built if missing)")
	fs.StringVar(&o.workdir, "workdir", "", "scratch directory for the result cache, span file and built binaries (default: a fresh temp dir)")
	fs.StringVar(&o.root, "root", "", "repository root holding BENCHMARK.json (default: the working directory or its parent)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if _, err := workloadByName(o.workload); err != nil {
		return nil, err
	}
	if o.seconds < 1 || o.jobs < 0 || o.aa < 0 || o.probeMs < 1 {
		return nil, fmt.Errorf("-seconds and -probe-ms must be positive, -jobs and -aa not negative")
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace takes 0 or 1, got %d", o.trace)
	}
	if o.aa == 1 {
		return nil, fmt.Errorf("-aa needs at least 2 runs to have a spread")
	}
	return o, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if o.aa > 0 {
		return runAA(o, stdout, stderr)
	}
	def, _ := workloadByName(o.workload)
	p := plan{def: def, seed: o.seed}

	e, cleanup, buildS, err := prepare(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer cleanup()

	mach := machineAtStart(o.root)
	fmt.Fprintf(stdout, "# bench %s seed=%d seconds=%d trace=%d\n", def.name, o.seed, o.seconds, o.trace)
	mach.print(stdout)
	if buildS > 0 {
		fmt.Fprintf(stdout, "build_s %.3f s (go build of dsmtxd; not part of setup_s)\n", buildS)
	}

	ctx := context.Background()
	var res result
	var summary map[string]any
	if o.trace == 0 {
		res, summary, err = runEndToEnd(ctx, p, e, o, stdout)
	} else {
		res, summary, err = runTraced(ctx, p, e, o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	mach.finish()
	summary["machine"] = mach
	summary["workload"] = def.name
	summary["seed"] = o.seed
	summary["trace"] = o.trace
	// This benchmark measures; it claims no gain.
	summary["claim"] = nil
	if js, err := json.Marshal(summary); err == nil {
		fmt.Fprintf(stdout, "summary %s\n", js)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// prepare resolves the scratch directory and the dsmtxd binary, building it
// when it is missing. The build time is reported but kept out of setup_s.
func prepare(o *options, stderr io.Writer) (e env, cleanup func(), buildS float64, err error) {
	e.log = stderr
	cleanup = func() {}
	if o.workdir == "" {
		dir, err := os.MkdirTemp("", "dsmtx-bench-")
		if err != nil {
			return e, cleanup, 0, err
		}
		e.workdir = dir
		cleanup = func() { os.RemoveAll(dir) }
	} else {
		if err := os.MkdirAll(o.workdir, 0o755); err != nil {
			return e, cleanup, 0, err
		}
		e.workdir, err = filepath.Abs(o.workdir)
		if err != nil {
			return e, cleanup, 0, err
		}
	}
	e.dsmtxd = o.dsmtxd
	if e.dsmtxd == "" {
		if self, err := os.Executable(); err == nil {
			e.dsmtxd = filepath.Join(filepath.Dir(self), "dsmtxd")
		}
	}
	if _, statErr := os.Stat(e.dsmtxd); e.dsmtxd == "" || statErr != nil {
		e.dsmtxd = filepath.Join(e.workdir, "dsmtxd")
		start := time.Now()
		if err := buildDsmtxd(e.dsmtxd, stderr); err != nil {
			cleanup()
			return e, func() {}, 0, err
		}
		buildS = time.Since(start).Seconds()
	}
	e.dsmtxd, err = filepath.Abs(e.dsmtxd)
	return e, cleanup, buildS, err
}

// buildDsmtxd compiles the repository's dsmtxd. It must run inside the
// bench module (the go.mod whose replace directive points at the repo).
func buildDsmtxd(out string, stderr io.Writer) error {
	cmd := exec.Command("go", "build", "-o", out, "dsmtx/cmd/dsmtxd")
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build dsmtx/cmd/dsmtxd (run from the bench/ directory, or pass -dsmtxd): %w", err)
	}
	return nil
}

// timedJobs is the size of the timed window: -jobs when given, else the
// workload's nominal rate times -seconds (at least 4).
func timedJobs(def *workloadDef, o *options) int {
	if o.jobs > 0 {
		return o.jobs
	}
	return max(int(def.jobsPerSecond*float64(o.seconds)+0.5), 4)
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median, which keeps one slow fork or page-cache miss out of the number.
const setupReps = 2

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(ctx context.Context, p plan, e env, o *options, stdout io.Writer) (result, map[string]any, error) {
	var t *target
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if t != nil {
			t.close()
		}
		start := time.Now()
		var err error
		if t, err = setUp(ctx, p, e); err != nil {
			return result{}, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer t.close()

	first := 0
	if !p.def.http {
		first = warmupJobs
	}
	smp := startSampler(os.Getpid())
	start := time.Now()
	// The guard only matters on a box several times slower than the sizing
	// one; a window it cuts short says so below.
	jobs := timedJobs(p.def, o)
	outs := runLoop(ctx, p, t, first, window(jobs, 3*time.Duration(o.seconds)*time.Second), nil)
	wall := time.Since(start)
	cpu, peakMB := smp.finish()

	if len(outs) < jobs {
		fmt.Fprintf(stdout, "WARNING: window cut at %d of %d jobs after %v; rows from this box compare only with themselves\n", len(outs), jobs, wall.Round(time.Second))
	}
	res := result{Attempted: len(outs)}
	var lat []float64
	var sources = map[string]int{}
	for _, out := range outs {
		if out.why != "" {
			res.Failed++
			fmt.Fprintf(stdout, "FAIL %s\n", out.why)
			continue
		}
		sources[out.res.Source]++
		if out.executed() {
			lat = append(lat, float64(out.latency)/1e6)
		}
	}
	for _, why := range claims(p.def, outs) {
		res.Failed++
		fmt.Fprintf(stdout, "FAIL %s\n", why)
	}
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if len(lat) == 0 {
		return result{}, nil, fmt.Errorf("%s: no job executed in the window", p.def.name)
	}

	got := map[string]float64{
		"setup_s":        median(setups),
		"jobs_per_s":     float64(res.Attempted-res.Failed) / wall.Seconds(),
		"job_p50_ms":     median(lat),
		"cpu_ms_per_job": float64(cpu) / 1e6 / float64(len(lat)),
		"peak_rss_mb":    peakMB,
	}
	var missing []string
	res.Metrics, missing = report(endToEnd, got)
	if len(missing) > 0 {
		return result{}, nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(stdout, "%-16s %12.4f %-4s (%s is better)\n", d.name, got[d.name], d.unit, d.better)
	}
	fmt.Fprintf(stdout, "%-16s %12d      of %d attempted (sources %v; latency over n=%d executed jobs)\n",
		"failed", res.Failed, res.Attempted, sources, len(lat))
	summary := map[string]any{
		"metrics": res.Metrics, "attempted": res.Attempted, "failed": res.Failed,
		"fail_frac": float64(res.Failed) / float64(max(res.Attempted, 1)),
		"executed":  len(lat), "window_s": wall.Seconds(), "setup_runs_s": setups,
		"latencies_ms": lat, // executed jobs in sequence order, for other percentiles
	}
	// p90 is reported only where at least ten samples lie beyond it.
	if p90, ok := percentile(lat, 0.90); ok {
		fmt.Fprintf(stdout, "%-16s %12.4f ms   (n=%d; reported, not gated)\n", "job_p90_ms", p90, len(lat))
		summary["job_p90_ms"] = p90
	} else {
		fmt.Fprintf(stdout, "%-16s      omitted      (n=%d < 100: fewer than %d samples beyond it)\n", "job_p90_ms", len(lat), tailSupport)
	}
	return res, summary, nil
}
