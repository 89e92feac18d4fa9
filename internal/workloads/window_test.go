package workloads

import (
	"flag"
	"fmt"
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/trace"
)

// Bounded run-ahead (core's awaitWindow) holds first-stage workers back once
// an invocation has recovered: a blocking wait at the head of every pipeline.
// The two things to pin are that it cannot wedge on any plan shape this
// repository runs, and that a run which never misspeculates cannot feel it.

var sweepAll = flag.Bool("sweep-all", false,
	"TestBoundedRunAheadSweep: run every cell (verify.sh does), not only those where the bound engages")

// runCounted is RunParallel on the host backend with a metrics-only tracer,
// returning the registry's counter reader beside the result.
func runCounted(b *Benchmark, in Input, paradigm Paradigm, cores, shards int) (Result, func(string) uint64, error) {
	tr := trace.NewMetricsOnly()
	res, err := RunParallel(b, in, paradigm, cores, func(cfg *core.Config) {
		cfg.Backend = core.BackendHost
		cfg.CommitShards = shards
		cfg.Tracer = tr
	})
	return res, func(name string) uint64 { return tr.Metrics().Counter(name).Value() }, err
}

// TestBoundedRunAheadSweep runs every workload under both paradigms live at
// 8 cores, clean and misspeculating, on one and two commit shards: each cell
// must reach the sequential checksum with vtime's committed count. A clean
// run must send no progress report, wait at no bound and (one shard, where
// the vtime run is made) move exactly the control messages vtime — which has
// no bound — moves; a run that recovered must have been reported to. Without
// -sweep-all (tier-1, and the GOMAXPROCS=2/8 -race rows of verify.sh) only the
// cells where the bound can engage run, rate 0.02 on one shard, and without
// the vtime cross-check; five workloads ignore the rate, so their cells are
// clean runs all the same.
func TestBoundedRunAheadSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("live sweep; verify.sh runs it under -race at GOMAXPROCS=2 and 8")
	}
	const cores = 8
	for _, b := range All() {
		_, committer := b.NewDSMTX(small(), 0).(core.Committer)
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
				var vres *Result
				if *sweepAll {
					res, err := RunParallel(b, in, paradigm, cores, nil)
					if err != nil {
						t.Fatalf("%s/%s rate %v: vtime: %v", b.Name, paradigm, rate, err)
					}
					vres = &res
				}
				for _, shards := range []int{1, 2} {
					if shards > 1 && (committer || !*sweepAll) {
						continue // a Committer needs the single commit unit
					}
					name := fmt.Sprintf("%s/%s rate %v shards %d", b.Name, paradigm, rate, shards)
					hres, count, err := runCounted(b, in, paradigm, cores, shards)
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
					if reports != 0 || waits != 0 {
						t.Errorf("%s: clean run sent %d reports and waited %d times", name, reports, waits)
					}
					if vres != nil && shards == 1 && hres.Traffic.ControlMessages != vres.Traffic.ControlMessages {
						t.Errorf("%s: clean run moved %d control messages, vtime %d",
							name, hres.Traffic.ControlMessages, vres.Traffic.ControlMessages)
					}
				}
			}
		}
	}
}

// TestBoundedRunAheadWaste pins the squashed work of the contracted
// host-recover job (197.parser, 5 cores, rate 0.05, n = 800 iterations, three
// stages of one worker). Epoch 0 is unbounded, so a stage can run the whole
// loop once; every later epoch runs at most twice what it committed plus the
// floor (2·stride = 2·8·(1+1) = 32 at these pool sizes) — an inequality that
// holds on any machine. The unbounded runtime executed 10,152–11,566 subTXs.
func TestBoundedRunAheadWaste(t *testing.T) {
	b, err := ByName("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	res, count, err := runCounted(b, Input{Scale: 1, Seed: 42, MisspecRate: 0.05}, DSMTX, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 800 || res.Misspecs != 20 {
		t.Fatalf("committed %d misspecs %d, want 800 and 20", res.Committed, res.Misspecs)
	}
	const stages, n, floor = 3, 800, 32
	limit := stages * (n + 2*res.Committed + floor*res.Misspecs)
	if res.SubTXs > limit {
		t.Errorf("SubTXs = %d, want <= %d", res.SubTXs, limit)
	}
	t.Logf("SubTXs %d (limit %d, useful %d); %d reports, %d waits",
		res.SubTXs, limit, stages*res.Committed, count("window.reports"), count("window.waits"))
}
