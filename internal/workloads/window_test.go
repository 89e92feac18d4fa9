package workloads

import (
	"flag"
	"fmt"
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/trace"
)

// Bounded run-ahead (core's awaitWindow) holds first-stage workers back on
// every backend from an invocation's first iteration: a blocking wait at
// the head of every pipeline. The things to pin are that it cannot wedge on
// any plan shape this repository runs, that a run which never misspeculates
// pays for it only in progress reports, and how much squashed work it leaves.

var sweepAll = flag.Bool("sweep-all", false,
	"TestBoundedRunAheadSweep: run every cell with its vtime cross-check (verify.sh does), not only the misspeculating cells")

// runCounted is RunParallel on the host backend with a metrics-only tracer,
// returning the registry's counter reader beside the result.
func runCounted(b *Benchmark, in Input, paradigm Paradigm, cores int) (Result, func(string) uint64, error) {
	tr := trace.NewMetricsOnly()
	res, err := RunParallel(b, in, paradigm, cores, func(cfg *core.Config) {
		cfg.Backend = core.BackendHost
		cfg.Tracer = tr
	})
	return res, func(name string) uint64 { return tr.Metrics().Counter(name).Value() }, err
}

// TestBoundedRunAheadSweep runs every workload under both paradigms live at
// 8 cores, clean and misspeculating: each cell must reach the sequential
// checksum with the committed and misspeculation counts of a vtime run, since
// the layout decides which iterations conflict. The bound is in force in
// every cell, on vtime as on host, so the accounting is exact instead: a
// clean run moves exactly vtime's control messages, progress reports
// included, and nothing else. Without -sweep-all (tier-1, and the
// GOMAXPROCS=2/8 -race rows of verify.sh) only rate 0.02 runs, without the
// vtime cross-check: a misspeculating cell waits at the
// bound in epoch 0 as a clean one does and then in every epoch after a
// recovery, and five workloads ignore the rate, so their cells are clean runs
// all the same.
func TestBoundedRunAheadSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("live sweep; verify.sh runs it under -race at GOMAXPROCS=2 and 8")
	}
	const cores = 8
	for _, b := range All() {
		for _, rate := range []float64{0, 0.02} {
			if rate == 0 && !*sweepAll {
				continue
			}
			in := Input{Scale: 1, Seed: 42, MisspecRate: rate}
			_, seqCheck, err := RunSequentialRef(b, in)
			if err != nil {
				t.Fatal(err)
			}
			for _, paradigm := range []Paradigm{DSMTX, TLS} {
				name := fmt.Sprintf("%s/%s rate %v", b.Name, paradigm, rate)
				var vres *Result
				if *sweepAll {
					res, err := RunParallel(b, in, paradigm, cores, nil)
					if err != nil {
						t.Fatalf("%s: vtime: %v", name, err)
					}
					vres = &res
				}
				hres, count, err := runCounted(b, in, paradigm, cores)
				if err != nil {
					t.Fatalf("%s: host: %v", name, err)
				}
				if hres.Checksum != seqCheck {
					t.Errorf("%s: checksum %#x, want sequential %#x", name, hres.Checksum, seqCheck)
				}
				if vres != nil && (hres.Committed != vres.Committed || hres.Misspecs != vres.Misspecs) {
					t.Errorf("%s: committed/misspecs %d/%d, vtime %d/%d",
						name, hres.Committed, hres.Misspecs, vres.Committed, vres.Misspecs)
				}
				if hres.SubTXs != count("subtx.executed") || hres.SubTXs == 0 {
					t.Errorf("%s: Result.SubTXs %d, subtx.executed %d", name, hres.SubTXs, count("subtx.executed"))
				}
				reports, waits := count("window.reports"), count("window.waits")
				if hres.Misspecs > 0 && reports == 0 {
					t.Errorf("%s: %d misspeculations and no progress report", name, hres.Misspecs)
				}
				if hres.Misspecs > 0 {
					continue
				}
				if vres != nil && hres.Traffic.ControlMessages != vres.Traffic.ControlMessages {
					t.Errorf("%s: clean run moved %d control messages (%d reports, %d waits), want vtime's %d",
						name, hres.Traffic.ControlMessages, reports, waits, vres.Traffic.ControlMessages)
				}
			}
		}
	}
}

// TestBoundedRunAheadWaste pins the squashed work of the contracted
// host-recover job (197.parser, 5 cores, rate 0.05, n = 800 iterations, three
// stages of one worker). Every epoch, the first included, runs at most twice
// what it committed plus the floor (2·stride = 2·8·(1+1) = 32 at these pool
// sizes), and there are misspecs + 1 epochs — an inequality that holds on any
// machine. The unbounded runtime executed 10,152–11,566 subTXs; with epoch 0
// unbounded, 3,722–4,638; bounded from the first epoch, 3,318–3,590.
func TestBoundedRunAheadWaste(t *testing.T) {
	b, err := ByName("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	res, count, err := runCounted(b, Input{Scale: 1, Seed: 42, MisspecRate: 0.05}, DSMTX, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 800 || res.Misspecs != 20 {
		t.Fatalf("committed %d misspecs %d, want 800 and 20", res.Committed, res.Misspecs)
	}
	const stages, floor = 3, 32
	limit := stages * (2*res.Committed + floor*(res.Misspecs+1))
	if res.SubTXs > limit {
		t.Errorf("SubTXs = %d, want <= %d", res.SubTXs, limit)
	}
	t.Logf("SubTXs %d (limit %d, useful %d); %d reports, %d waits",
		res.SubTXs, limit, stages*res.Committed, count("window.reports"), count("window.waits"))
}
