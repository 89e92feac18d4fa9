package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dsmtx/internal/core"
	"dsmtx/internal/engine"
	"dsmtx/internal/netrun"
	"dsmtx/internal/trace"
	"dsmtx/internal/workloads"
)

// The traced run. Nothing is instrumented inside the program: the
// benchmark walks a job by hand through each layer's public functions with
// a span around every call, reads the counters the runtime already exports
// (the core.Config.Tracer metrics registry, Result.Traffic, GET /stats),
// and probes in isolation the layers that cannot be timed from outside a
// run. A layer the workload's own jobs never cross is measured on a small
// reference job instead, so every row is a measurement on every workload;
// those rows are marked "ref" in the printed table.

// ledger collects per-layer samples by metric name.
type ledger struct {
	samples map[string][]float64
	ref     map[string]bool
}

func newLedger() *ledger {
	return &ledger{samples: make(map[string][]float64), ref: make(map[string]bool)}
}

func (l *ledger) has(name string) bool { return len(l.samples[name]) > 0 }

// add records the round's values whose names pass keep (nil keeps all).
func (l *ledger) add(vals map[string]float64, ref bool, keep func(name string) bool) {
	for name, v := range vals {
		if keep != nil && !keep(name) {
			continue
		}
		l.samples[name] = append(l.samples[name], v)
		if ref {
			l.ref[name] = true
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// recoveryMetric names the numbers only a misspeculating job can produce.
func recoveryMetric(name string) bool {
	switch name {
	case "core.erm_ms", "core.flq_ms", "core.seq_ms", "core.rfp_ms", "core.misspec_frac":
		return true
	}
	return false
}

// walker walks jobs by hand for the traced run. Every job it runs, by
// whatever path, takes the next number: the span file's job ID and the
// run's attempted count.
type walker struct {
	rec    *recorder
	oracle *oracle
	jobNo  int
	failed []string
}

func (w *walker) nextJob() int { w.jobNo++; return w.jobNo }

func (w *walker) fail(format string, args ...any) {
	w.failed = append(w.failed, fmt.Sprintf(format, args...))
}

// verify applies the job gate to a hand-walked result.
func (w *walker) verify(spec engine.JobSpec, checksum, committed uint64) {
	want, err := w.oracle.reference(spec)
	if err != nil {
		w.fail("%s: %v", spec, err)
		return
	}
	trips, err := w.oracle.tripCount(spec)
	if err != nil {
		w.fail("%s: %v", spec, err)
		return
	}
	if checksum != want {
		w.fail("%s: walked checksum %#x, sequential reference %#x", spec, checksum, want)
	}
	if committed != trips {
		w.fail("%s: walked job committed %d MTXs, loop has %d iterations", spec, committed, trips)
	}
}

// walkHost runs one host job through the public layer calls
// (Benchmark.NewDSMTX -> core.NewSystem -> System.Run -> CommitImage +
// Checksum) under a root span. With counted set, the runtime's metrics
// registry is attached and its counters are read back; that is the costly
// variant, and its latency against the untraced engine path is
// trace.overhead_frac.
func (w *walker) walkHost(spec engine.JobSpec, counted bool) (map[string]float64, error) {
	b, err := workloads.ByName(spec.Bench)
	if err != nil {
		return nil, err
	}
	job := w.nextJob()
	var tr *trace.Tracer
	if counted {
		tr = trace.NewMetricsOnly()
	}
	root := w.rec.begin("job.walk", 0, job)
	var prog workloads.Program
	dProg := w.rec.time("workloads.NewDSMTX", root, job, func() { prog = b.NewDSMTX(inputOf(spec), 0) })
	cfg := core.DefaultConfig(spec.Cores, prog.Plan())
	cfg.Backend = core.BackendHost
	cfg.Tracer = tr
	var sys *core.System
	dBuild := w.rec.time("core.NewSystem", root, job, func() { sys, err = core.NewSystem(cfg, prog, nil) })
	if err != nil {
		return nil, err
	}
	var res core.Result
	dRun := w.rec.time("core.System.Run", root, job, func() { res, err = sys.Run() })
	if err != nil {
		return nil, err
	}
	var sum uint64
	dSum := w.rec.time("workloads.Checksum", root, job, func() { sum = prog.Checksum(sys.CommitImage()) })
	total := w.rec.end(root)
	w.verify(spec, sum, res.Committed)

	vals := map[string]float64{"walk_ms": ms(total)}
	if !counted {
		vals["core.build_ms"] = ms(dBuild)
		vals["core.run_ms"] = ms(dRun)
		vals["core.us_per_mtx"] = float64(dRun) / 1e3 / float64(max(res.Committed, 1))
		vals["workloads.checksum_ms"] = ms(dSum)
		vals["children_ms"] = ms(dProg + dRun + dSum)
		return vals, nil
	}
	m := tr.Metrics()
	flushItems, flushBytes := m.Histogram("queue.flush.items"), m.Histogram("queue.flush.bytes")
	batches := float64(max(flushItems.Count(), 1))
	vals["core.erm_ms"] = ms(time.Duration(res.ERM))
	vals["core.flq_ms"] = ms(time.Duration(res.FLQ))
	vals["core.seq_ms"] = ms(time.Duration(res.SEQ))
	vals["core.rfp_ms"] = ms(time.Duration(res.RFP))
	vals["core.misspec_frac"] = float64(res.Misspecs) / float64(max(res.Committed, 1))
	vals["core.coa_requests"] = float64(m.Counter("coa.requests").Value())
	vals["core.coa_pages"] = float64(m.Counter("coa.pages.served").Value())
	vals["queue.items"] = float64(m.Counter("queue.produced").Value())
	vals["queue.batches"] = float64(flushItems.Count())
	vals["queue.items_per_batch"] = float64(flushItems.Sum()) / batches
	vals["queue.bytes_per_batch"] = float64(flushBytes.Sum()) / batches
	vals["mem.page_faults"] = float64(m.Counter("mem.pages.faulted").Value())
	vals["mem.pages_recycled"] = float64(m.Counter("mem.pages.recycled").Value())
	vals["host.ring_msgs"] = float64(m.Counter("host.ring.enqueue").Value())
	vals["host.parks"] = float64(m.Counter("host.recv.park").Value())
	vals["host.park_ms"] = float64(m.Histogram("host.recv.park.ns").Sum()) / 1e6
	vals["host.spills"] = float64(m.Counter("host.ring.spill").Value())
	vals["host.queue_mb"] = float64(res.Traffic.QueueBytes) / 1e6
	vals["host.coa_mb"] = float64(res.Traffic.PageBytes) / 1e6
	return vals, nil
}

// hostRound is one round of the host traced window: the same job through
// Engine.Submit (untraced), walked with spans, and walked with counters.
// engine.self_ms is the part of the Submit span the walked children do not
// cover (admission, pool hand-off, result assembly), taken as a paired
// difference inside the round so drift cancels.
func (w *walker) hostRound(ctx context.Context, eng *engine.Engine, spec engine.JobSpec) (map[string]float64, error) {
	job := w.nextJob()
	var sub engine.Result
	var err error
	dSub := w.rec.time("engine.Submit", 0, job, func() { sub, err = eng.Submit(ctx, spec) })
	if err != nil {
		return nil, err
	}
	w.verify(spec, sub.Checksum, sub.Committed)
	spans, err := w.walkHost(spec, false)
	if err != nil {
		return nil, err
	}
	counts, err := w.walkHost(spec, true)
	if err != nil {
		return nil, err
	}
	vals := counts
	vals["traced_ms"] = counts["walk_ms"]
	for k, v := range spans {
		vals[k] = v
	}
	vals["untraced_ms"] = ms(dSub)
	vals["engine.submit_ms"] = ms(dSub)
	vals["engine.self_ms"] = ms(dSub) - spans["children_ms"]
	return vals, nil
}

// baselines times the workload layer alone for a spec: input generation
// (the program's Setup, run through the sequential runner with zero
// iterations), the plain single-threaded run of the same input, which is
// the baseline every parallel number is read against.
func (w *walker) baselines(spec engine.JobSpec) (map[string]float64, error) {
	b, err := workloads.ByName(spec.Bench)
	if err != nil {
		return nil, err
	}
	// A seed of its own: 164.gzip memoizes generated inputs per seed.
	spec.Seed = derive(spec.Seed, streamFresh, uint64(w.jobNo))
	job := w.nextJob()
	prog := b.NewDSMTX(inputOf(spec), 0)
	cfg := core.DefaultConfig(spec.Cores, prog.Plan())
	dIn := w.rec.time("core.RunSequential(setup only)", 0, job, func() { _, _, err = core.RunSequential(cfg, prog, 0, nil) })
	if err != nil {
		return nil, err
	}
	dSeq := w.rec.time("workloads.RunSequentialRef", 0, job, func() { _, _, err = workloads.RunSequentialRef(b, inputOf(spec)) })
	if err != nil {
		return nil, err
	}
	return map[string]float64{"workloads.input_ms": ms(dIn), "workloads.seq_ms": ms(dSeq)}, nil
}

// netRound runs one job on a benchmark-owned fleet through netrun's public
// coordinator call. netrun.control_ms is the run span's self time: what the
// daemon-reported execution does not cover (job push, mesh set-up,
// Start/InvDone barriers, result collection).
func (w *walker) netRound(cl *netrun.Cluster, spec engine.JobSpec) (map[string]float64, error) {
	job := w.nextJob()
	id := w.rec.begin("netrun.Cluster.Run", 0, job)
	res, err := cl.Run(netrun.JobSpec{Bench: spec.Bench, Scale: spec.Scale,
		MisspecRate: spec.Rate, Seed: spec.Seed, Cores: spec.Cores})
	total := w.rec.end(id)
	if err != nil {
		return nil, err
	}
	w.rec.child("core.System.Run (daemons)", id, time.Duration(res.Elapsed))
	w.verify(spec, res.Checksum, res.Committed)
	if res.Daemons != 2 {
		w.fail("%s: ran on %d daemons, want 2", spec, res.Daemons)
	}
	self := selfTimes(w.rec.snapshot())[id]
	return map[string]float64{
		"traced_ms":         ms(total),
		"netrun.run_ms":     ms(total),
		"netrun.control_ms": ms(self),
		"net.mb_per_s":      float64(res.Traffic.Bytes) / 1e6 / time.Duration(res.Elapsed).Seconds(),
		"net.msgs_per_job":  float64(res.Traffic.Messages),
	}, nil
}

// launchFleet starts the benchmark's own two-daemon fleet under a span.
func (w *walker) launchFleet(e env, led *ledger, ref bool) (*netrun.Cluster, error) {
	var cl *netrun.Cluster
	var err error
	d := w.rec.time("netrun.LaunchLocal", 0, 0, func() { cl, err = netrun.LaunchLocal(2, e.dsmtxd) })
	if err != nil {
		return nil, err
	}
	led.add(map[string]float64{"netrun.launch_ms": ms(d)}, ref, nil)
	return cl, nil
}

// serveWindow drives serve-mix's closed loop with client-side spans by job
// class while polling GET /stats at 10 Hz.
func (w *walker) serveWindow(ctx context.Context, p plan, t *target, first, jobs int, led *ledger, ref bool) []outcome {
	before, _ := t.srv.stats(ctx)
	var mu sync.Mutex
	runningMax := before.Running
	stop := make(chan struct{})
	var poll sync.WaitGroup
	poll.Add(1)
	go func() {
		defer poll.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if st, err := t.srv.stats(ctx); err == nil {
					mu.Lock()
					runningMax = max(runningMax, st.Running)
					mu.Unlock()
				}
			}
		}
	}()
	base := w.jobNo - first
	outs := runLoop(ctx, p, t, first, window(jobs, 0),
		func(index int, j job, send func() (engine.Result, error)) (engine.Result, error) {
			id := w.rec.begin("POST /jobs?wait=1 "+j.spec.Bench, 0, base+index+1)
			res, err := send()
			w.rec.end(id)
			return res, err
		})
	close(stop)
	poll.Wait()
	after, _ := t.srv.stats(ctx)

	w.jobNo += len(outs)
	for _, o := range outs {
		if o.why != "" {
			w.fail("%s", o.why)
			continue
		}
		name := "engine.http_hit_ms"
		if o.res.Source == "run" {
			name = "engine.http_fresh_host_ms"
			if o.job.spec.Backend == "vtime" {
				name = "engine.http_fresh_vtime_ms"
			}
		}
		led.add(map[string]float64{name: ms(o.latency)}, ref, nil)
	}
	submitted := float64(max(after.Submitted-before.Submitted, 1))
	pool := float64(max(after.PoolReuses-before.PoolReuses+after.PoolBuilds-before.PoolBuilds, 1))
	led.add(map[string]float64{
		"engine.cache_hit_frac": float64(after.CacheHits-before.CacheHits) / submitted,
		"engine.coalesced_frac": float64(after.Coalesced-before.Coalesced) / submitted,
		"engine.pool_warm_frac": float64(after.PoolReuses-before.PoolReuses) / pool,
		"engine.rejected":       float64(after.Rejected - before.Rejected),
		"engine.running_max":    float64(runningMax),
	}, ref, nil)
	return outs
}

// Reference jobs for layers a workload's own jobs never cross.
func refRecover(seed uint64) engine.JobSpec {
	return engine.JobSpec{Bench: "197.parser", Backend: "host", Cores: ranks, Scale: 1, Rate: 0.05,
		Seed: derive(seed, streamInput, 0)}
}

func refNet(seed uint64) engine.JobSpec {
	return engine.JobSpec{Bench: "164.gzip", Backend: "net", Cores: ranks, Scale: 1,
		Seed: derive(seed, streamInput, 0)}
}

// hostSpec is the host job the workload's core/queue/mem/host rows are
// measured on: its own job where it runs on host, else the same kernel
// moved to host (net-loopback) or the mix's parser class (serve-mix).
func hostSpec(p plan, i int) engine.JobSpec {
	if p.def.http {
		s := mixClasses[0]
		s.Verify = false
		s.Seed = derive(p.seed, streamInput, uint64(i%seedCycle))
		return s
	}
	s := p.job(i).spec
	s.Backend = "host"
	return s
}

const refRounds = 3

// runTraced produces the per-layer metrics.
func runTraced(ctx context.Context, p plan, e env, o *options, stdout io.Writer) (result, map[string]any, error) {
	t, err := setUp(ctx, p, e)
	if err != nil {
		return result{}, nil, err
	}
	defer t.close()
	led := newLedger()
	w := &walker{rec: newRecorder(), oracle: t.oracle}
	jobs := timedJobs(p.def, o)

	// The workload's own window, traced.
	switch {
	case p.def.http:
		// First half untraced, second half with spans and /stats polling.
		half := max(jobs/2, 2)
		plain := runLoop(ctx, p, t, 0, window(half, 0), nil)
		w.jobNo += len(plain)
		traced := w.serveWindow(ctx, p, t, half, half, led, false)
		for _, o := range plain {
			if o.why != "" {
				w.fail("%s", o.why)
			} else if o.executed() {
				led.add(map[string]float64{"untraced_ms": ms(o.latency)}, false, nil)
			}
		}
		for _, o := range traced {
			if o.executed() {
				led.add(map[string]float64{"traced_ms": ms(o.latency)}, false, nil)
			}
		}
		for _, why := range claims(p.def, append(plain, traced...)) {
			w.fail("%s", why)
		}
	case p.def.base.Backend == "net":
		cl, err := w.launchFleet(e, led, false)
		if err != nil {
			return result{}, nil, err
		}
		defer cl.Close()
		for r := 0; r < max(jobs/2, 2); r++ {
			spec := p.job(warmupJobs + r).spec
			job := w.nextJob()
			var sub engine.Result
			d := w.rec.time("engine.Submit", 0, job, func() { sub, err = t.submit(ctx, spec) })
			if err != nil {
				return result{}, nil, err
			}
			w.verify(spec, sub.Checksum, sub.Committed)
			vals, err := w.netRound(cl, spec)
			if err != nil {
				return result{}, nil, err
			}
			vals["untraced_ms"] = ms(d)
			led.add(vals, false, nil)
		}
	default:
		var misspecs float64
		for r := 0; r < max(jobs/3, 2); r++ {
			vals, err := w.hostRound(ctx, t.eng, p.job(warmupJobs+r).spec)
			if err != nil {
				return result{}, nil, err
			}
			misspecs += vals["core.misspec_frac"]
			keep := func(name string) bool { return p.def.base.Rate > 0 || !recoveryMetric(name) }
			led.add(vals, false, keep)
		}
		if (p.def.base.Rate > 0) != (misspecs > 0) {
			w.fail("%s: misspeculation fraction summed to %g over the traced window", p.def.name, misspecs)
		}
	}

	// Reference walks for the layers the window did not cross.
	if err := w.fill(ctx, p, e, led); err != nil {
		return result{}, nil, err
	}
	if !led.has("traced_ms") || !led.has("untraced_ms") {
		return result{}, nil, fmt.Errorf("%s: the traced window executed no job on one side; lengthen it (-jobs or -seconds)", p.def.name)
	}
	led.samples["trace.overhead_frac"] = []float64{
		median(led.samples["traced_ms"])/median(led.samples["untraced_ms"]) - 1}

	// Isolated probes, sized from what the run observed.
	probes, err := runProbes(e, time.Duration(o.probeMs)*time.Millisecond,
		int(median(led.samples["queue.bytes_per_batch"])))
	if err != nil {
		return result{}, nil, err
	}
	for name, v := range probes {
		led.samples[name] = []float64{v}
	}

	spanFile := filepath.Join(e.workdir, fmt.Sprintf("spans-%s-%d.json", p.def.name, p.seed))
	if err := w.rec.writeJSON(spanFile); err != nil {
		return result{}, nil, err
	}

	got := make(map[string]float64)
	for name, xs := range led.samples {
		got[name] = median(xs)
	}
	res := result{Attempted: w.jobNo, Failed: min(len(w.failed), w.jobNo)}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	var missing []string
	res.Metrics, missing = report(perLayer, got)
	if len(missing) > 0 {
		sort.Strings(missing)
		return result{}, nil, fmt.Errorf("per-layer metrics not measured: %v", missing)
	}
	for _, why := range w.failed {
		fmt.Fprintf(stdout, "FAIL %s\n", why)
	}
	fmt.Fprintf(stdout, "%-30s %14s %-6s %-6s %5s  %s\n", "metric", "median", "unit", "source", "n", "measured on")
	for _, d := range perLayer {
		on := "own jobs"
		if led.ref[d.name] {
			on = "ref job"
		}
		if d.source == "probe" {
			on = "isolated"
		}
		fmt.Fprintf(stdout, "%-30s %14.4f %-6s %-6s %5d  %s\n", d.name, got[d.name], d.unit, d.source, len(led.samples[d.name]), on)
	}
	fmt.Fprintf(stdout, "spans written to %s (%d spans)\n", spanFile, len(w.rec.snapshot()))
	summary := map[string]any{"metrics": res.Metrics, "attempted": res.Attempted, "failed": res.Failed,
		"span_file": spanFile}
	return res, summary, nil
}

// fill measures, on small reference jobs, every per-layer row the
// workload's own window left empty.
func (w *walker) fill(ctx context.Context, p plan, e env, led *ledger) error {
	host := hostSpec(p, 0)
	if !led.has("core.run_ms") {
		eng := engine.New(engine.Config{})
		defer eng.Close()
		for r := 0; r < refRounds; r++ {
			vals, err := w.hostRound(ctx, eng, hostSpec(p, r))
			if err != nil {
				return err
			}
			delete(vals, "traced_ms") // the overhead ratio is the workload's own
			delete(vals, "untraced_ms")
			led.add(vals, true, func(name string) bool { return host.Rate > 0 || !recoveryMetric(name) })
		}
	}
	if !led.has("core.rfp_ms") {
		for r := 0; r < refRounds; r++ {
			vals, err := w.walkHost(refRecover(p.seed), true)
			if err != nil {
				return err
			}
			led.add(vals, true, recoveryMetric)
		}
	}
	// The same job with no misspeculation: what an MTX costs in steady
	// state, against which the recovery rows are read.
	if host.Rate == 0 {
		led.samples["core.steady_us_per_mtx"] = led.samples["core.us_per_mtx"]
		led.ref["core.steady_us_per_mtx"] = led.ref["core.us_per_mtx"]
	} else {
		steady := host
		steady.Rate = 0
		for r := 0; r < refRounds; r++ {
			vals, err := w.walkHost(steady, false)
			if err != nil {
				return err
			}
			led.add(map[string]float64{"core.steady_us_per_mtx": vals["core.us_per_mtx"]}, true, nil)
		}
	}
	for r := 0; r < refRounds; r++ {
		vals, err := w.baselines(hostSpec(p, r))
		if err != nil {
			return err
		}
		led.add(vals, false, nil)
	}
	if !led.has("netrun.run_ms") {
		cl, err := w.launchFleet(e, led, true)
		if err != nil {
			return err
		}
		defer cl.Close()
		for r := 0; r < 2; r++ {
			vals, err := w.netRound(cl, refNet(p.seed))
			if err != nil {
				return err
			}
			delete(vals, "traced_ms")
			led.add(vals, true, nil)
		}
	}
	if !led.has("engine.http_hit_ms") {
		mix, _ := workloadByName("serve-mix")
		rp := plan{def: mix, seed: p.seed}
		rt, err := setUp(ctx, rp, e)
		if err != nil {
			return err
		}
		defer rt.close()
		w.serveWindow(ctx, rp, rt, 0, 12, led, true)
	}
	return nil
}
