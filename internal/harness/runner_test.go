package harness

import (
	"reflect"
	"testing"

	"dsmtx/internal/engine"
	"dsmtx/internal/expsched"
	"dsmtx/internal/workloads"
)

// testPoints enumerates a small but representative sweep: Fig. 4, 5a,
// 5b, 6 and the §7 manycore comparison, on the cheapest kernels. (The §5.3
// micro measurements are not engine jobs and have no enumerator;
// runFigures resolves them on demand.)
func testPoints(in workloads.Input, t *testing.T) (specs []engine.JobSpec, crc, bls *workloads.Benchmark) {
	t.Helper()
	var err error
	if crc, err = workloads.ByName("crc32"); err != nil {
		t.Fatal(err)
	}
	if bls, err = workloads.ByName("blackscholes"); err != nil {
		t.Fatal(err)
	}
	specs = append(specs, PointsFigure4(crc, in, []int{8, 16})...)
	specs = append(specs, PointsFigure4(bls, in, []int{8, 16})...)
	specs = append(specs, PointsFigure5a(crc, in)...)
	specs = append(specs, PointsFigure5b(crc, in, 16)...)
	specs = append(specs, PointsFigure6(crc, in, 0.01, 16)...)
	specs = append(specs, PointsManycore(crc, in)...)
	return specs, crc, bls
}

// figures resolves every figure struct the test sweep renders, through
// the given runner.
type figures struct {
	Fig4Crc, Fig4Bls Fig4Series
	Fig5a            Fig5aRow
	Fig5b            Fig5bRow
	Fig6             Fig6Row
	Many             ManycoreRow
	Micro            MicroResult
}

func runFigures(t *testing.T, r *Runner, in workloads.Input, crc, bls *workloads.Benchmark) figures {
	t.Helper()
	var f figures
	var err error
	if f.Fig4Crc, err = r.RunFigure4(crc, in, []int{8, 16}); err != nil {
		t.Fatal(err)
	}
	if f.Fig4Bls, err = r.RunFigure4(bls, in, []int{8, 16}); err != nil {
		t.Fatal(err)
	}
	if f.Fig5a, err = r.RunFigure5a(crc, in); err != nil {
		t.Fatal(err)
	}
	if f.Fig5b, err = r.RunFigure5b(crc, in, 16); err != nil {
		t.Fatal(err)
	}
	if f.Fig6, err = r.RunFigure6(crc, in, 0.01, 16); err != nil {
		t.Fatal(err)
	}
	if f.Many, err = r.RunManycore(crc, in); err != nil {
		t.Fatal(err)
	}
	if f.Micro, err = r.RunMicroQueue(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestParallelMatchesSequential pins the DESIGN.md §6 invariant for the
// scheduler: a host-parallel prefetched sweep produces results equal
// field-for-field to a sequential run, so everything rendered from them
// is byte-identical.
func TestParallelMatchesSequential(t *testing.T) {
	in := workloads.DefaultInput()
	specs, crc, bls := testPoints(in, t)

	seq := &Runner{Workers: 1}
	want := runFigures(t, seq, in, crc, bls)

	par := &Runner{Workers: 8}
	if err := par.Prefetch(specs); err != nil {
		t.Fatal(err)
	}
	prefetched := par.Stats()
	got := runFigures(t, par, in, crc, bls)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("parallel results differ from sequential:\n got %+v\nwant %+v", got, want)
	}
	if gr, wr := RenderFigure4(got.Fig4Crc), RenderFigure4(want.Fig4Crc); gr != wr {
		t.Errorf("rendered output differs:\n%s\nvs\n%s", gr, wr)
	}
	// The enumerators must name every job the figure methods resolve:
	// replaying against the warm memo may compute nothing new beyond the
	// four micro measurements.
	after := par.Stats()
	if extra := after.Computed - prefetched.Computed - len(microMechanisms); extra != 0 {
		t.Errorf("figure methods computed %d extra jobs after Prefetch — enumerators incomplete", extra)
	}
	if prefetched.CacheHits != 0 {
		t.Errorf("no cache configured but CacheHits = %d", prefetched.CacheHits)
	}
}

// TestWarmCacheRerun: a second runner over the same cache directory
// resolves the whole sweep from disk — zero simulations — and produces
// identical figures.
func TestWarmCacheRerun(t *testing.T) {
	in := workloads.DefaultInput()
	specs, crc, bls := testPoints(in, t)
	dir := t.TempDir()
	cache, err := expsched.OpenCache(dir, "test-fingerprint")
	if err != nil {
		t.Fatal(err)
	}

	cold := &Runner{Workers: 8, Cache: cache}
	if err := cold.Prefetch(specs); err != nil {
		t.Fatal(err)
	}
	want := runFigures(t, cold, in, crc, bls)
	if s := cold.Stats(); s.CacheHits != 0 || s.Computed == 0 {
		t.Fatalf("cold run stats: %+v", s)
	}

	warmCache, err := expsched.OpenCache(dir, "test-fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	warm := &Runner{Workers: 8, Cache: warmCache}
	if err := warm.Prefetch(specs); err != nil {
		t.Fatal(err)
	}
	got := runFigures(t, warm, in, crc, bls)
	s := warm.Stats()
	if s.Computed != 0 {
		t.Errorf("warm rerun computed %d points, want 0 (100%% cache hits)", s.Computed)
	}
	if s.CacheHits != cold.Stats().Computed {
		t.Errorf("warm rerun cache hits = %d, want %d", s.CacheHits, cold.Stats().Computed)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cached results differ:\n got %+v\nwant %+v", got, want)
	}

	// A fingerprint change (simulated code edit) must invalidate everything.
	staleCache, err := expsched.OpenCache(dir, "other-fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	stale := &Runner{Workers: 8, Cache: staleCache}
	if _, err := stale.resolve(specs[0]); err != nil {
		t.Fatal(err)
	}
	if s := stale.Stats(); s.CacheHits != 0 || s.Computed != 1 {
		t.Errorf("fingerprint change: stats %+v, want a recompute", s)
	}
}

// TestPrefetchProgress: the callback sees every deduplicated point
// exactly once with a monotonically complete done count.
func TestPrefetchProgress(t *testing.T) {
	in := workloads.DefaultInput()
	crc, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	specs := PointsFigure5b(crc, in, 8)
	specs = append(specs, specs...) // duplicates must collapse
	var calls int
	seen := map[engine.JobSpec]int{}
	r := &Runner{Workers: 4, Progress: func(done, total int, spec engine.JobSpec, source string) {
		calls++
		seen[spec]++
		if total != 3 || done < 1 || done > total {
			t.Errorf("progress done=%d total=%d", done, total)
		}
		if source != "run" {
			t.Errorf("source = %q, want run", source)
		}
	}}
	if err := r.Prefetch(specs); err != nil {
		t.Fatal(err)
	}
	if calls != 3 || len(seen) != 3 {
		t.Errorf("progress calls = %d over %d specs, want 3 unique", calls, len(seen))
	}
}

// TestRunnerStatsMemo: repeat requests inside one process hit the memo,
// not the simulator.
func TestRunnerStatsMemo(t *testing.T) {
	in := workloads.DefaultInput()
	crc, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	r := new(Runner)
	if _, _, err := r.runSequential(crc, in, engine.KnobNone); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.runSequential(crc, in, engine.KnobNone); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Computed != 1 || s.MemoHits != 1 {
		t.Errorf("stats = %+v, want 1 computed + 1 memo hit", s)
	}
}
