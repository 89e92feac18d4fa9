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

// TestJobAllocationCeiling pins what one warm job allocates, in MB and in
// heap objects: 164.gzip scale 1 on host with 5 cores, the host-recover spec
// (197.parser on host with 5 cores at misspeculation rate 0.05), and a crc32
// verify pair — the sequential reference plus a 32-core vtime run, as the
// engine runs a verified job. The input is cached, so what is left is the
// job's own memory: each Setup maps the cached frames instead of copying
// them, the loads whose block never leaves the call fill a borrowed buffer,
// and a Copy-On-Access reply lends the snapshot's frames, so only a page a
// rank writes is copied. Before the first two, gzip read 19.6 MB and
// 7,500–7,800 objects, and the crc32 pair 26.6 MB and ≈ 9,200 objects; then
// 13.1–13.7 MB and 5,200–6,300 objects, and ≈ 1.5 MB and ≈ 5,900 objects.
// With lent frames gzip reads 12.5–12.6 MB and 5,500–5,700 objects. Those
// two ceilings sit between, and crc32's MB ceiling leaves room for a
// collection emptying the page pool mid-job. The parser job reads 0.6–0.8
// MB and 2,770–3,110 objects; its ceilings sit 25% above. Mallocs and
// TotalAlloc are process-wide, so a loaded box reads high, never low.
func TestJobAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	gzip, crc := Gzip(), CRC32()
	parser, err := ByName("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Scale: 1, Seed: 42}
	for _, c := range []struct {
		name       string
		mb, allocs float64
		job        func() error
	}{
		{"164.gzip host 5 cores", 16.5, 7000, func() error {
			_, err := RunParallel(gzip, in, DSMTX, 5, func(cfg *core.Config) { cfg.Backend = core.BackendHost })
			return err
		}},
		{"197.parser host 5 cores rate 0.05", 1.0, 3900, func() error {
			_, err := RunParallel(parser, Input{Scale: 1, Seed: 42, MisspecRate: 0.05}, DSMTX, 5, func(cfg *core.Config) { cfg.Backend = core.BackendHost })
			return err
		}},
		{"crc32 verify pair, vtime 32 cores", 10, 7500, func() error {
			if _, _, err := RunSequentialRef(crc, in); err != nil {
				return err
			}
			_, err := RunParallel(crc, in, DSMTX, 32, nil)
			return err
		}},
	} {
		if err := c.job(); err != nil { // warm-up: the input, lazily built tables
			t.Fatal(err)
		}
		runtime.GC() // the job starts on a collected heap, with warm pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := c.job(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		allocs := float64(after.Mallocs - before.Mallocs)
		t.Logf("%s: %.1f MB, %.0f objects per warm job", c.name, mb, allocs)
		if mb > c.mb || allocs > c.allocs {
			t.Errorf("%s: %.1f MB and %.0f objects per warm job, want <= %v MB and <= %v", c.name, mb, allocs, c.mb, c.allocs)
		}
	}
}
