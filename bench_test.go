// Benchmarks regenerating the paper's evaluation, one per table and figure
// (plus ablations of the design choices DESIGN.md calls out). Each
// iteration runs a full simulated-cluster execution; custom metrics report
// what the paper's figures plot — speedup over sequential, bandwidth,
// recovery overhead — alongside the usual host-side ns/op.
//
// Run: go test -bench=. -benchmem
package dsmtx_test

import (
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/harness"
	"dsmtx/internal/platform"
	"dsmtx/internal/workloads"
)

// benchInput is the evaluation input at scale 1.
func benchInput() workloads.Input { return workloads.DefaultInput() }

// seqTimes caches sequential baselines per benchmark (they are
// deterministic).
var seqTimes = map[string]platform.Time{}

func seqTime(b *testing.B, bench *workloads.Benchmark) platform.Time {
	if t, ok := seqTimes[bench.Name]; ok {
		return t
	}
	t, _, err := workloads.RunSequentialRef(bench, benchInput())
	if err != nil {
		b.Fatal(err)
	}
	seqTimes[bench.Name] = t
	return t
}

// BenchmarkFigure1 regenerates Fig. 1: cycles/iteration for DSWP and
// DOACROSS at communication latencies 1 and 2.
func BenchmarkFigure1(b *testing.B) {
	for _, lat := range []int{1, 2} {
		b.Run(map[int]string{1: "latency1", 2: "latency2"}[lat], func(b *testing.B) {
			var r harness.Fig1Result
			for i := 0; i < b.N; i++ {
				r = harness.RunFigure1(lat)
			}
			b.ReportMetric(r.DOACROSS, "DOACROSS-cyc/iter")
			b.ReportMetric(r.DSWP, "DSWP-cyc/iter")
		})
	}
}

// BenchmarkFigure4 regenerates one point of each Fig. 4 panel: speedup of
// the DSMTX and TLS parallelizations at 64 cores, for every benchmark.
func BenchmarkFigure4(b *testing.B) {
	const cores = 64
	for _, bench := range workloads.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			seq := seqTime(b, bench)
			var dsmtxRes, tlsRes workloads.Result
			for i := 0; i < b.N; i++ {
				var err error
				dsmtxRes, err = workloads.RunParallel(bench, benchInput(), workloads.DSMTX, cores, nil)
				if err != nil {
					b.Fatal(err)
				}
				tlsRes, err = workloads.RunParallel(bench, benchInput(), workloads.TLS, cores, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(seq.Seconds()/dsmtxRes.Elapsed.Seconds(), "DSMTX-speedup")
			b.ReportMetric(seq.Seconds()/tlsRes.Elapsed.Seconds(), "TLS-speedup")
		})
	}
}

// BenchmarkFigure5a regenerates Fig. 5(a): the application bandwidth
// requirement under Spec-DSWP, at the plan's minimum core count.
func BenchmarkFigure5a(b *testing.B) {
	for _, name := range []string{"164.gzip", "256.bzip2", "197.parser", "swaptions"} {
		name := name
		b.Run(name, func(b *testing.B) {
			bench, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var row harness.Fig5aRow
			for i := 0; i < b.N; i++ {
				row, err = new(harness.Runner).RunFigure5a(bench, benchInput())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.KBps[0], "kBps")
			b.ReportMetric(row.KBps[len(row.KBps)-1], "kBps-at+3cores")
		})
	}
}

// BenchmarkFigure5b regenerates Fig. 5(b): speedup with batched queues
// versus flushing every produce (direct MPI_Send), at 64 cores.
func BenchmarkFigure5b(b *testing.B) {
	for _, name := range []string{"197.parser", "456.hmmer", "130.li"} {
		name := name
		b.Run(name, func(b *testing.B) {
			bench, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var row harness.Fig5bRow
			for i := 0; i < b.N; i++ {
				row, err = new(harness.Runner).RunFigure5b(bench, benchInput(), 64)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.Optimized, "optimized-speedup")
			b.ReportMetric(row.NonOptimized, "nonoptimized-speedup")
		})
	}
}

// BenchmarkFigure6 regenerates Fig. 6: recovery overhead at a 0.1%
// misspeculation rate, 64 cores, reporting the phase breakdown.
func BenchmarkFigure6(b *testing.B) {
	for _, name := range harness.Fig6Benches() {
		name := name
		b.Run(name, func(b *testing.B) {
			bench, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var row harness.Fig6Row
			for i := 0; i < b.N; i++ {
				row, err = new(harness.Runner).RunFigure6(bench, benchInput(), 0.001, 64)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.Clean, "clean-speedup")
			b.ReportMetric(row.MIS, "MIS-speedup")
			b.ReportMetric(row.RFP*1e6, "RFP-us")
			b.ReportMetric(row.SEQ*1e6, "SEQ-us")
			b.ReportMetric(row.FLQ*1e6, "FLQ-us")
			b.ReportMetric(row.ERM*1e6, "ERM-us")
		})
	}
}

// BenchmarkQueueBandwidth regenerates the §5.3 micro-measurement behind
// Fig. 5(b): sustained MB/s through a DSMTX queue vs raw MPI primitives
// (paper: 480.7 vs 13.1 / 12.7 / 8.1).
func BenchmarkQueueBandwidth(b *testing.B) {
	var r harness.MicroResult
	for i := 0; i < b.N; i++ {
		r = harness.RunMicroQueue()
	}
	b.ReportMetric(r.QueueMBps, "queue-MBps")
	b.ReportMetric(r.SendMBps, "MPI_Send-MBps")
	b.ReportMetric(r.BsendMBps, "MPI_Bsend-MBps")
	b.ReportMetric(r.IsendMBps, "MPI_Isend-MBps")
}

// BenchmarkTable1Operations measures the Table 1 runtime operations
// themselves: committed MTX throughput of a minimal pipeline — the floor
// under every Fig. 4 curve.
func BenchmarkTable1Operations(b *testing.B) {
	bench, err := workloads.ByName("crc32")
	if err != nil {
		b.Fatal(err)
	}
	var res workloads.Result
	for i := 0; i < b.N; i++ {
		res, err = workloads.RunParallel(bench, benchInput(), workloads.DSMTX, 16, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Committed)/res.Elapsed.Seconds(), "MTX-commits/s")
	b.ReportMetric(float64(res.Events), "sim-events")
}

// --- Ablations (design choices from DESIGN.md §6) ---
//
// Each reports DSMTX's vtime speedup over the sequential run, so one run
// is exact; EXPERIMENTS.md "Ablations" records what they print.

// BenchmarkAblationBatchSize sweeps the queue batch threshold — the lever
// behind Fig. 5(b) (bigger batches amortize MPI call overhead) and Fig. 6
// (bigger batches waste more work on rollback).
func BenchmarkAblationBatchSize(b *testing.B) {
	bench, err := workloads.ByName("197.parser")
	if err != nil {
		b.Fatal(err)
	}
	seq := seqTime(b, bench)
	for _, batch := range []int{0, 512, 4096, 32768} {
		batch := batch
		name := map[bool]string{true: "unbatched", false: ""}[batch == 0]
		if name == "" {
			name = "batch" + itoa(batch)
		}
		b.Run(name, func(b *testing.B) {
			var res workloads.Result
			for i := 0; i < b.N; i++ {
				res, err = workloads.RunParallel(bench, benchInput(), workloads.DSMTX, 64,
					func(cfg *core.Config) { cfg.Queue.BatchBytes = batch })
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(seq.Seconds()/res.Elapsed.Seconds(), "speedup")
		})
	}
}

// BenchmarkAblationCOAPrefetch sweeps Copy-On-Access read-ahead: 1 page is
// the paper's base mechanism; larger windows amortize round trips for
// streaming access (gzip's input).
func BenchmarkAblationCOAPrefetch(b *testing.B) {
	bench, err := workloads.ByName("164.gzip")
	if err != nil {
		b.Fatal(err)
	}
	seq := seqTime(b, bench)
	for _, pages := range []int{1, 4, 16} {
		pages := pages
		b.Run("pages"+itoa(pages), func(b *testing.B) {
			var res workloads.Result
			for i := 0; i < b.N; i++ {
				res, err = workloads.RunParallel(bench, benchInput(), workloads.DSMTX, 32,
					func(cfg *core.Config) { cfg.COAPrefetch = pages })
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(seq.Seconds()/res.Elapsed.Seconds(), "speedup")
		})
	}
}

// BenchmarkAblationMarkerFlush sweeps how many iterations of
// validation/commit stream batch per flush — the decoupling of the
// try-commit/commit units from the workers' critical path (§3.2): flushing
// every iteration pays more messages, batching delays each commit.
func BenchmarkAblationMarkerFlush(b *testing.B) {
	bench, err := workloads.ByName("052.alvinn")
	if err != nil {
		b.Fatal(err)
	}
	seq := seqTime(b, bench)
	for _, every := range []int{1, 8, 64} {
		every := every
		b.Run("every"+itoa(every), func(b *testing.B) {
			var res workloads.Result
			for i := 0; i < b.N; i++ {
				res, err = workloads.RunParallel(bench, benchInput(), workloads.DSMTX, 64,
					func(cfg *core.Config) { cfg.MarkerFlushIters = every })
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(seq.Seconds()/res.Elapsed.Seconds(), "speedup")
		})
	}
}

// BenchmarkAblationLatency sweeps inter-node latency on a pipelined
// workload (the Fig. 1 argument at application scale).
func BenchmarkAblationLatency(b *testing.B) {
	bench, err := workloads.ByName("456.hmmer")
	if err != nil {
		b.Fatal(err)
	}
	seq := seqTime(b, bench)
	for _, us := range []int{2, 8, 32} {
		us := us
		b.Run("latency"+itoa(us)+"us", func(b *testing.B) {
			var res workloads.Result
			for i := 0; i < b.N; i++ {
				res, err = workloads.RunParallel(bench, benchInput(), workloads.DSMTX, 64,
					func(cfg *core.Config) { cfg.Cluster.InterNodeLatency = platform.Duration(us) * platform.Microsecond })
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(seq.Seconds()/res.Elapsed.Seconds(), "speedup")
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
