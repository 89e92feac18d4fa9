package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dsmtx/internal/pipeline"
	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// TestLiveRecoverySweep drives seeded random programs through the host
// backend, where the first stage waits at the run-ahead window in every
// epoch (awaitWindow): loop lengths 1-400 straddle the window's
// floor and the trip count, misspeculation sets run from none to a storm,
// and the plan shapes are the ones the wedge argument names — a sequential
// first stage feeding a round-robin or occupancy-routed pool, a parallel
// first stage with value conflicts, the TLS sync ring — at 5/6/9/12 cores,
// one or two commit shards, and marker batches of 1, 3 and 8 (stride and
// floor derive from them). Every run goes through runWithin, so a wedge
// fails instead of hanging, and the committed words are compared one by one
// with the sequential result. Clean programs run under the bound too, and at
// least one of the full 150 (the short 30 may have none) must wait at it, so
// the wedge argument is exercised in epoch 0 and not only after a recovery.
func TestLiveRecoverySweep(t *testing.T) {
	programs := 150
	if testing.Short() {
		programs = 30
	}
	cleanWaits := 0
	for seed := int64(1); seed <= int64(programs); seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := uint64(1 + rng.Intn(400))
		if rng.Intn(3) == 0 {
			n = uint64(1 + rng.Intn(40)) // ends inside the floor
		}
		misspecs := make(map[uint64]bool)
		if rate := []float64{0, 0.01, 0.05, 0.3}[rng.Intn(4)]; rate > 0 {
			for k := uint64(0); k < n; k++ {
				if rng.Float64() < rate {
					misspecs[k] = true
				}
			}
		}
		cores := []int{5, 6, 9, 12}[rng.Intn(4)]
		shards := 1 + rng.Intn(2)
		if cores-shards-1 < 3 {
			shards = 1 // the three-stage plan needs three workers
		}
		plan := pipeline.SpecDSWP("S", "DOALL", "S")
		var prog Program
		switch kind := rng.Intn(4); kind {
		case 0, 1:
			plan.Occupancy = kind == 1
			prog = &pipeProg{n: n, misspecs: misspecs}
		case 2:
			plan = pipeline.SpecDOALL()
			prog = &doallProg{n: n, flip: uint64(rng.Intn(int(n)))}
		case 3:
			plan = pipeline.SpecDOALL()
			plan.Sync = true
			prog = &tlsMisspecProg{n: n, misspecs: misspecs}
		}
		cfg := smallConfig(cores, plan)
		cfg.Backend = BackendHost
		cfg.CommitShards = shards
		cfg.MarkerFlushIters = []int{1, 3, 8}[rng.Intn(3)]
		tr := trace.NewMetricsOnly()
		cfg.Tracer = tr
		name := fmt.Sprintf("seed %d: %s n=%d, %d misspecs, %d cores, %d shards, occupancy %v, flush %d",
			seed, plan.Name, n, len(misspecs), cores, shards, plan.Occupancy, cfg.MarkerFlushIters)
		sys, res, err := runWithin(cfg, prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Committed != n {
			t.Errorf("%s: committed %d", name, res.Committed)
		}
		img := sys.CommitImage()
		words := func(out uva.Addr, expect func(uint64) uint64) {
			for k := uint64(0); k < n; k++ {
				if got := img.Load(out + uva.Addr(k*8)); got != expect(k) {
					t.Errorf("%s: out[%d] = %d, want %d", name, k, got, expect(k))
				}
			}
		}
		wantMisspecs := uint64(len(misspecs))
		switch p := prog.(type) {
		case *pipeProg:
			words(p.out, p.expect)
		case *doallProg:
			words(p.out, p.expect)
			wantMisspecs = res.Misspecs // value conflicts: how many depends on timing
		case *tlsMisspecProg:
			if got := img.Load(p.acc); got != p.expect() {
				t.Errorf("%s: acc = %d, want %d", name, got, p.expect())
			}
		}
		if res.Misspecs != wantMisspecs {
			t.Errorf("%s: %d misspeculations", name, res.Misspecs)
		}
		if res.Misspecs == 0 && tr.Metrics().Counter("window.waits").Value() > 0 {
			cleanWaits++
		}
	}
	if cleanWaits == 0 && !testing.Short() {
		t.Errorf("no clean program waited at the run-ahead window")
	}
	t.Logf("%d clean programs waited at the window", cleanWaits)
}
