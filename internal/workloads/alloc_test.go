package workloads

import (
	"runtime"
	"testing"

	"dsmtx/internal/core"
)

// TestMTXAllocationCeiling pins what the live path allocates per committed
// MTX on the contracted host-recover spec (197.parser, host, 5 cores): queue
// batches return to their sender, workers reuse their Ctx, inbox and
// receive buffers, and bulk loads fill the caller's buffer, so what is left
// is per-job setup plus the inherent per-MTX records. Before that reuse
// this test read ≈ 106 per MTX at rate 0.05 and ≈ 70 at rate 0 (now ≈ 7 and
// ≈ 6); the ceilings keep a ≥ 5× margin to the parent and ≈ 3× above a
// loaded box's readings, so they hold on any box. One job
// runs first as warm-up (lazily built tables, first-use runtime
// structures); Mallocs is process-wide, so the count includes whatever the
// test binary does meanwhile — an overcount, never an undercount.
func TestMTXAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	b, err := ByName("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		rate    float64
		ceiling float64
	}{{0.05, 20}, {0, 12}} {
		in := Input{Scale: 1, Seed: 42, MisspecRate: c.rate}
		run := func() Result {
			res, err := RunParallel(b, in, DSMTX, 5, func(cfg *core.Config) { cfg.Backend = core.BackendHost })
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := run()
		runtime.ReadMemStats(&after)
		per := float64(after.Mallocs-before.Mallocs) / float64(res.Committed)
		t.Logf("rate %v: %.1f allocations per committed MTX (%d MTXs, %d misspecs, %.1f MB, %d GC cycles)",
			c.rate, per, res.Committed, res.Misspecs,
			float64(after.TotalAlloc-before.TotalAlloc)/1e6, after.NumGC-before.NumGC)
		if per > c.ceiling {
			t.Errorf("rate %v: %.1f allocations per committed MTX, want <= %v", c.rate, per, c.ceiling)
		}
	}
}
