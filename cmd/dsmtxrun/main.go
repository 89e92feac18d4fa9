// Command dsmtxrun executes one benchmark configuration and reports its
// statistics: speedup over the sequential baseline, traffic, commit and
// recovery behaviour, and output verification.
//
// Usage:
//
//	dsmtxrun -bench 456.hmmer -cores 64
//	dsmtxrun -bench 130.li -cores 32 -paradigm tls
//	dsmtxrun -bench crc32 -cores 96 -misspec 0.001
//	dsmtxrun -bench 164.gzip -cores 32 -trace out.json -metrics
//	dsmtxrun -bench 164.gzip -cores 32 -faults spike=0.001:20us,straggler=r1:2x@2ms+500us
//	dsmtxrun -bench crc32 -cores 32 -faults spike=0.01:20us,seed=7
//	dsmtxrun -bench crc32 -cores 8 -backend host
//	dsmtxrun -bench crc32 -cores 16 -commit-shards 4 -backend host
//	dsmtxrun -bench crc32 -cores 8 -backend host -trace host.json -metrics
//	dsmtxrun -bench 164.gzip -cores 32 -backend host -metrics-addr 127.0.0.1:9090
//	dsmtxrun -bench 197.parser -cores 5 -misspec 0.05 -backend net -net-daemons 2
//	dsmtxrun -bench crc32 -cores 8 -misspec 0.02 -paradigm tls -backend net
//
// The -backend flag selects the execution platform: "vtime" (the default)
// runs on the deterministic virtual-time simulator with the paper's cost
// model; "host" runs the same protocol live on host goroutines, measuring
// wall-clock time; "net" runs it across dsmtxd daemon processes over TCP
// (spawned on loopback with -net-daemons, or joined with -net-join). The
// live backends verify the identical checksum but model no instruction or
// wire costs, so no speedup is reported. Tracing and metrics work on vtime
// and host (host spans carry wall-clock timestamps and add delivery-layer
// instrumentation; on net they belong to the daemons); -faults is
// vtime-only. -commit-shards partitions the commit pipeline across N
// consistent-hashed commit units (cross-shard MTXs commit through an
// ordered two-phase vote); the default 1 is the paper's single commit
// unit. -metrics-addr serves the live metrics registry as JSON at
// /metrics while the run executes.
//
// Results go to stdout; errors go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dsmtx/internal/cli"
	"dsmtx/internal/core"
	"dsmtx/internal/engine"
	"dsmtx/internal/faults"
	"dsmtx/internal/harness"
	"dsmtx/internal/job"
	"dsmtx/internal/netrun"
	"dsmtx/internal/stats"
	"dsmtx/internal/trace"
	"dsmtx/internal/workloads"
)

// options are the parsed, validated command-line settings.
type options struct {
	spec        job.Spec // the parallel run the flags describe, normalized
	traceOut    string
	metrics     bool
	metricsAddr string
	plan        *faults.Plan
	// opts are the submission options the flags describe: the fleet's
	// placement, and the tracer -trace, -metrics or -metrics-addr asks for
	// (shared across invocations, binding stitches each invocation's clock,
	// virtual or wall, onto one timeline).
	opts engine.Options
}

// parseFlags parses and validates args (without the program name).
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("dsmtxrun", flag.ContinueOnError)
	fs.StringVar(&o.spec.Bench, "bench", "", "benchmark name (see dsmtxbench -table 2); empty lists them")
	fs.IntVar(&o.spec.Cores, "cores", 32, "total cores (workers + try-commit + commit)")
	fs.IntVar(&o.spec.CommitShards, "commit-shards", 1, "commit units partitioning the page space (1 = the paper's single commit unit)")
	paradigm := fs.String("paradigm", "dsmtx", "dsmtx or tls")
	backend := fs.String("backend", "vtime", "execution platform: vtime (deterministic simulator), host (live goroutines, wall clock) or net (dsmtxd daemon processes over TCP, wall clock)")
	fs.Float64Var(&o.spec.Rate, "misspec", 0, "input misspeculation rate (e.g. 0.001)")
	def := workloads.DefaultInput()
	fs.IntVar(&o.spec.Scale, "scale", def.Scale, "problem-size multiplier")
	fs.Uint64Var(&o.spec.Seed, "seed", def.Seed, "input generation seed")
	fs.StringVar(&o.traceOut, "trace", "", "write a Chrome trace-event JSON timeline (Perfetto-loadable) to this file")
	fs.BoolVar(&o.metrics, "metrics", false, "print the metrics registry and per-rank stall attribution")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve a live JSON metrics snapshot at http://ADDR/metrics during the run (e.g. 127.0.0.1:9090)")
	faultArg := fs.String("faults", "", "deterministic fault plan, e.g. spike=0.001:20us,straggler=r1:2x@2ms+500us,seed=7 (see internal/faults)")
	fs.IntVar(&o.opts.NetDaemons, "net-daemons", 2, "with -backend net: spawn this many loopback daemon processes")
	netJoin := fs.String("net-join", "", "with -backend net: comma-separated dsmtxd addresses to join instead of spawning (last hosts the commit unit)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if len(fs.Args()) > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	p, err := workloads.ParseParadigm(strings.ToUpper(*paradigm))
	if err != nil {
		return nil, fmt.Errorf("unknown -paradigm %q (have dsmtx, tls)", *paradigm)
	}
	b, err := core.ParseBackend(*backend)
	if err != nil {
		return nil, err
	}
	o.spec.Paradigm, o.spec.Backend = p.String(), b.String()

	if *faultArg != "" {
		p, err := faults.Parse(*faultArg)
		if err != nil {
			return nil, fmt.Errorf("-faults: %v", err)
		}
		o.plan = &p
	}
	o.spec.Faults = o.plan.Format()
	o.spec = o.spec.Normalized()

	if *netJoin != "" {
		o.opts.NetJoin = strings.Split(*netJoin, ",")
	}
	if o.traceOut != "" {
		o.opts.Tracer = trace.New()
	} else if o.metrics || o.metricsAddr != "" {
		o.opts.Tracer = trace.NewMetricsOnly()
	}
	if o.spec.Bench != "" {
		// The backend × feature rules (faults are vtime-only, net refuses
		// commit shards and a tracer, ...) are the job spec's and the
		// engine's; state them once, there, and surface them as flag errors.
		if err := o.spec.Validate(); err != nil {
			return nil, err
		}
		if err := o.opts.Validate(o.spec); err != nil {
			return nil, err
		}
	}
	if b == core.BackendNet {
		if o.opts.NetJoin == nil && o.opts.NetDaemons < 1 {
			return nil, fmt.Errorf("-net-daemons must be at least 1")
		}
	} else if o.opts.NetJoin != nil {
		return nil, fmt.Errorf("-net-join requires -backend net")
	}
	return o, nil
}

// writeChromeTrace exports the virtual-time timeline as Chrome trace-event
// JSON (load in Perfetto / chrome://tracing: ranks appear as threads, virtual
// nanoseconds as timestamps).
func writeChromeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	if os.Getenv(netrun.DaemonEnv) == "1" {
		// Re-exec'd by a -backend net coordinator (possibly ourselves):
		// become a daemon before any flag parsing.
		os.Exit(netrun.DaemonMain())
	}
	cli.Main("dsmtxrun", parseFlags, func(o *options) error { return run(o, os.Stdout) })
}

// shardSuffix renders the commit-shard count in the report header when the
// pipeline is sharded; the default single unit stays silent so existing
// output is unchanged.
func shardSuffix(n int) string {
	if n <= 1 {
		return ""
	}
	return fmt.Sprintf(", commit shards %d", n)
}

// reportOutput prints the report's verdict line — the parallel checksum
// against the sequential reference's — and returns an error on a mismatch,
// so a wrong answer fails the command.
func reportOutput(stdout io.Writer, parallel, sequential uint64) error {
	if parallel != sequential {
		fmt.Fprintf(stdout, "  output          MISMATCH: parallel %#x, sequential %#x\n", parallel, sequential)
		return fmt.Errorf("output MISMATCH: parallel checksum %#x, sequential %#x", parallel, sequential)
	}
	fmt.Fprintf(stdout, "  output          VERIFIED (checksum %#x matches sequential)\n", parallel)
	return nil
}

// run executes the configured benchmark and writes the one report every
// backend shares. On net the ranks live in dsmtxd daemons (spawned on
// loopback, or joined via -net-join) and talk TCP; the engine launches or
// joins the fleet and the record it returns adds only the mesh counters.
func run(o *options, stdout io.Writer) error {
	if o.spec.Bench == "" {
		fmt.Fprintln(stdout, harness.RenderTable2())
		return nil
	}
	b, err := workloads.ByName(o.spec.Bench)
	if err != nil {
		return err
	}

	// Every execution routes through the job engine: the report below is
	// one Submit for the sequential reference and one for the parallel run
	// (unbounded admission — a CLI invocation is its own client).
	eng := engine.New(engine.Config{})
	defer eng.Close()

	// The sequential reference always runs in virtual time: it is the cost
	// model's baseline and, for the live backends, the checksum oracle.
	seqRes, err := eng.Submit(context.Background(), job.Spec{
		Kind: job.KindSeq, Bench: b.Name, Scale: o.spec.Scale, Seed: o.spec.Seed, Rate: o.spec.Rate,
	})
	if err != nil {
		return err
	}
	seqTime, seqCheck := seqRes.SeqTime, seqRes.SeqCheck
	tr := o.opts.Tracer
	if o.metricsAddr != "" {
		stop, err := cli.ServeMetrics(o.metricsAddr, tr.Metrics())
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(stdout, "metrics: serving http://%s/metrics\n", o.metricsAddr)
	}
	res, err := eng.SubmitOpts(context.Background(), o.spec, o.opts)
	if err != nil {
		return err
	}
	if o.traceOut != "" {
		if err := writeChromeTrace(o.traceOut, tr); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d events -> %s\n", len(tr.Events()), o.traceOut)
	}

	head := fmt.Sprintf("%s (%s), %d cores, paradigm %s", b.Name, b.Paradigm, o.spec.Cores, o.spec.Paradigm)
	if o.spec.ParsedBackend() == core.BackendVTime {
		fmt.Fprintf(stdout, "%s%s\n", head, shardSuffix(o.spec.CommitShards))
		fmt.Fprintf(stdout, "  sequential      %v\n", seqTime)
		fmt.Fprintf(stdout, "  parallel        %v\n", res.Elapsed)
		fmt.Fprintf(stdout, "  speedup         %s\n", stats.FormatSpeedup(seqTime.Seconds()/res.Elapsed.Seconds()))
	} else {
		fmt.Fprintf(stdout, "%s, backend %s%s\n", head, o.spec.Backend, shardSuffix(o.spec.CommitShards))
		fmt.Fprintf(stdout, "  sequential      %v (vtime reference)\n", seqTime)
		fmt.Fprintf(stdout, "  parallel        %v wall clock\n", res.Elapsed)
	}
	fmt.Fprintf(stdout, "  MTXs committed  %d (misspeculations: %d)\n", res.Committed, res.Misspecs)
	fmt.Fprintf(stdout, "  wire traffic    %.2f MB (%.1f MB/s)\n", float64(res.Traffic.Bytes)/1e6, res.Bandwidth()/1e6)
	if tr != nil {
		t := res.Traffic
		fmt.Fprintf(stdout, "  traffic classes queue %.2f MB (%d msgs), COA pages %.2f MB (%d msgs), control %.2f MB (%d msgs)\n",
			float64(t.QueueBytes)/1e6, t.QueueMessages,
			float64(t.PageBytes)/1e6, t.PageMessages,
			float64(t.ControlBytes)/1e6, t.ControlMessages)
	}
	if res.Daemons > 0 {
		m := res.Mesh
		fmt.Fprintf(stdout, "  mesh:           %d daemons, %d frames out / %d in (%.2f MB), %d flushes (%.2f frames/flush), acks %d out / %d in, %d dups dropped, %d reconnects, replay log <= %d frames / %.1f KB, send queue <= %d\n",
			res.Daemons, m.FramesOut, m.FramesIn, float64(m.BytesOut)/1e6, m.Flushes, float64(m.FramesOut)/float64(max(m.Flushes, 1)),
			m.AcksOut, m.AcksIn, m.DupsDropped, m.Reconnects, m.ReplayFramesMax, float64(m.ReplayBytesMax)/1e3, m.OutQueueMax)
	}
	if res.Misspecs > 0 {
		fmt.Fprintf(stdout, "  recovery        ERM %v  FLQ %v  SEQ %v  RFP %v\n", res.ERM, res.FLQ, res.SEQ, res.RFP)
		// Useful outcomes over attempts: every stage body the workers ran
		// against the ones a committed MTX needed.
		useful := res.Committed * uint64(len(workloads.NewChain(b, o.spec.Input()).Plan(o.spec.ParsedParadigm()).Stages))
		squashed := 100 * max(0, 1-float64(useful)/float64(max(res.SubTXs, 1)))
		fmt.Fprintf(stdout, "  speculation     %d subTXs executed, %d useful (%.1f%% squashed)\n", res.SubTXs, useful, squashed)
	}
	if o.plan != nil {
		fmt.Fprintf(stdout, "  fault plan      %s\n", o.plan.Format())
	}
	verdict := reportOutput(stdout, res.Checksum, seqCheck)
	if o.metrics {
		fmt.Fprintf(stdout, "\nStall attribution (per rank):\n%s\n", res.Stalls.Table())
		fmt.Fprintf(stdout, "\nStall attribution (per stage):\n%s\n", res.Stalls.StageTable())
		fmt.Fprintf(stdout, "\nMetrics:\n%s\n", tr.Metrics().Table())
	}
	return verdict
}
