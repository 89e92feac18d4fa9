package harness

import (
	"reflect"
	"testing"

	"dsmtx/internal/engine"
	"dsmtx/internal/expsched"
	"dsmtx/internal/workloads"
)

// figures holds every figure struct the test sweep renders: Fig. 4, 5a,
// 5b, 6, the §7 manycore comparison and the §5.3 micro measurements, on
// the cheapest kernels.
type figures struct {
	Fig4Crc, Fig4Bls Fig4Series
	Fig5a            Fig5aRow
	Fig5b            Fig5bRow
	Fig6             Fig6Row
	Many             ManycoreRow
	Micro            MicroResult
}

// runFigures calls every figure method through r: one at a time on a
// sequential runner, all at once on a parallel one, so there the figures
// that share a job (crc32's sequential reference, Fig. 6's clean run at 16
// cores, which is a Fig. 4 cell) ask for it concurrently.
func runFigures(t *testing.T, r *Runner, in workloads.Input) figures {
	t.Helper()
	crc, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	bls, err := workloads.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	var f figures
	steps := []func() error{
		func() (err error) { f.Fig4Crc, err = r.RunFigure4(crc, in, []int{8, 16}); return },
		func() (err error) { f.Fig4Bls, err = r.RunFigure4(bls, in, []int{8, 16}); return },
		func() (err error) { f.Fig5a, err = r.RunFigure5a(crc, in); return },
		func() (err error) { f.Fig5b, err = r.RunFigure5b(crc, in, 16); return },
		func() (err error) { f.Fig6, err = r.RunFigure6(crc, in, 0.01, 16); return },
		func() (err error) { f.Many, err = r.RunManycore(crc, in); return },
		func() error { f.Micro = RunMicroQueue(); return nil },
	}
	if r.Workers <= 1 {
		for _, step := range steps {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	if _, err := expsched.Map(len(steps), func(i int) (struct{}, error) {
		return struct{}{}, steps[i]()
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestParallelMatchesSequential pins the DESIGN.md §6 invariant for the
// scheduler: figure methods called concurrently on a parallel runner
// produce results equal field-for-field to one-at-a-time calls on a
// sequential runner, so everything rendered from them is byte-identical.
func TestParallelMatchesSequential(t *testing.T) {
	in := workloads.DefaultInput()
	seq := &Runner{Workers: 1}
	want := runFigures(t, seq, in)
	par := &Runner{Workers: 8}
	got := runFigures(t, par, in)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("parallel results differ from sequential:\n got %+v\nwant %+v", got, want)
	}
	if gr, wr := RenderFigure4(got.Fig4Crc), RenderFigure4(want.Fig4Crc); gr != wr {
		t.Errorf("rendered output differs:\n%s\nvs\n%s", gr, wr)
	}
}

// TestWarmCacheRerun: a second runner over the same cache directory
// resolves the whole sweep from disk — zero simulations — and produces
// identical figures.
func TestWarmCacheRerun(t *testing.T) {
	in := workloads.DefaultInput()
	dir := t.TempDir()
	cache, err := expsched.OpenCache(dir, "test-fingerprint")
	if err != nil {
		t.Fatal(err)
	}

	cold := &Runner{Workers: 8, Cache: cache}
	want := runFigures(t, cold, in)
	if s := cold.Stats(); s.Computed == 0 {
		t.Fatalf("cold run stats: %+v", s)
	}

	warmCache, err := expsched.OpenCache(dir, "test-fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	warm := &Runner{Workers: 8, Cache: warmCache}
	got := runFigures(t, warm, in)
	if s := warm.Stats(); s.Computed != 0 || s.CacheHits == 0 {
		t.Errorf("warm rerun stats %+v, want 0 computed (100%% cache hits)", s)
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
	if _, err := stale.resolve(seqJob("crc32", in, engine.KnobNone)); err != nil {
		t.Fatal(err)
	}
	if s := stale.Stats(); s.CacheHits != 0 || s.Computed != 1 {
		t.Errorf("fingerprint change: stats %+v, want a recompute", s)
	}
}

// TestResolveAllProgress: resolveAll returns the results in spec order, a
// spec named twice comes back equal both times, and the callback sees
// every request once, satisfied by a run or by coalescing onto one.
func TestResolveAllProgress(t *testing.T) {
	in := workloads.DefaultInput()
	specs := []engine.JobSpec{
		seqJob("crc32", in, engine.KnobNone),
		parJob("crc32", in, workloads.DSMTX, 8, engine.KnobNone),
		parJob("crc32", in, workloads.DSMTX, 8, engine.KnobQueueUnopt),
	}
	specs = append(specs, specs...)
	seen := map[engine.JobSpec]int{}
	r := &Runner{Workers: 4, Progress: func(spec engine.JobSpec, source string) {
		seen[spec]++
		if source != "run" && source != "coalesced" {
			t.Errorf("source = %q, want run or coalesced", source)
		}
	}}
	res, err := r.resolveAll(specs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Errorf("progress saw %d distinct specs, want 3", len(seen))
	}
	for spec, n := range seen {
		if n != 2 {
			t.Errorf("progress saw %s %d times, want 2", spec, n)
		}
	}
	if res[0].SeqCheck == 0 || res[1].Committed == 0 {
		t.Errorf("results out of spec order: %+v", res[:2])
	}
	for i := 0; i < 3; i++ {
		first, dup := res[i], res[i+3]
		first.Source, dup.Source = "", ""
		if !reflect.DeepEqual(first, dup) {
			t.Errorf("result %d differs from its duplicate", i)
		}
	}
}
