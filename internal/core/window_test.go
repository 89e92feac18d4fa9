package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dsmtx/internal/pipeline"
	"dsmtx/internal/platform"
	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// TestLiveRecoverySweep drives seeded random programs through vtime or the
// host backend, drawn per seed, where the first stage waits at the run-ahead
// window in every epoch (awaitWindow): loop lengths 1-400 straddle the
// window's floor and the trip count, misspeculation sets run from none to a
// storm, and the plan shapes are the ones the wedge argument names — a
// sequential first stage feeding a round-robin or occupancy-routed pool, a
// parallel first stage with value conflicts, the TLS sync ring — at
// 5/6/9/12 cores and marker batches of 1, 3 and 8 (stride and floor derive
// from them). Every run goes through runWithin, so a wedge fails instead of
// hanging, and the committed words are compared one by one with the
// sequential result. A failing vtime seed replays exactly. Clean programs run
// under the bound too, and at least one clean vtime program, of the full 150
// or the short 30, must wait at it, so the wedge argument is exercised in
// epoch 0 and not only after a recovery; on vtime whether one waits does not
// depend on the machine.
func TestLiveRecoverySweep(t *testing.T) {
	programs := 150
	if testing.Short() {
		programs = 30
	}
	cleanWaits := map[Backend]int{}
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
		cfg.MarkerFlushIters = []int{1, 3, 8}[rng.Intn(3)]
		cfg.Backend = []Backend{BackendVTime, BackendHost}[rng.Intn(2)]
		tr := trace.NewMetricsOnly()
		cfg.Tracer = tr
		name := fmt.Sprintf("seed %d: %v %s n=%d, %d misspecs, %d cores, occupancy %v, flush %d",
			seed, cfg.Backend, plan.Name, n, len(misspecs), cores, plan.Occupancy, cfg.MarkerFlushIters)
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
			cleanWaits[cfg.Backend]++
		}
	}
	if cleanWaits[BackendVTime] == 0 {
		t.Errorf("no clean vtime program waited at the run-ahead window")
	}
	t.Logf("clean programs that waited at the window: %d on vtime, %d on host", cleanWaits[BackendVTime], cleanWaits[BackendHost])
}

// TestStallIdentity pins buildStallReport's identity on vtime, exactly, for
// a run that both waits at the run-ahead window and recovers: for every
// worker, try-commit and commit row, Advanced + Blocked of its process equals
// the row's columns summed, and no column is negative. A wait at the window
// parks (its blocking Recv) as well as advances, as a recovery window does.
func TestStallIdentity(t *testing.T) {
	cfg := smallConfig(6, pipeline.SpecDSWP("S", "DOALL", "S"))
	cfg.MarkerFlushIters = 1
	tr := trace.NewMetricsOnly()
	cfg.Tracer = tr
	sys, res := runProg(t, cfg, &pipeProg{n: 120, misspecs: map[uint64]bool{30: true, 75: true}})
	if res.Misspecs == 0 || tr.Metrics().Counter("window.waits").Value() == 0 {
		t.Fatalf("%d misspeculations, %d window waits; want a run that does both",
			res.Misspecs, tr.Metrics().Counter("window.waits").Value())
	}
	procs := map[string]platform.Proc{"trycommit0": sys.tc.proc, "commit": sys.cu.proc}
	for _, w := range sys.workers {
		procs[fmt.Sprintf("worker%d", w.tid)] = w.proc
	}
	held := false
	for _, row := range sys.StallReport().Rows {
		p, ok := procs[row.Label]
		if !ok {
			continue
		}
		delete(procs, row.Label)
		for _, cell := range []platform.Duration{row.Busy, row.Backpressure, row.Starvation, row.VerdictWait, row.Recovery, row.Blocked} {
			if cell < 0 {
				t.Errorf("%s: negative cell in %+v", row.Label, row)
				break
			}
		}
		if got, want := row.Total(), p.Advanced()+p.Blocked(); got != want {
			t.Errorf("%s: columns sum to %v, Advanced + Blocked is %v: %+v", row.Label, got, want, row)
		}
		held = held || row.Backpressure > 0
	}
	if len(procs) != 0 {
		t.Errorf("no stall row for %v", procs)
	}
	if !held {
		t.Error("no row charged backpressure, though a worker waited at the window")
	}
}

// TestScheduleExplorerRearm runs rearmProg, whose recoveries each leave a
// commit-unit word and a squashed store stale (selective re-arm), on vtime
// under the explorer's six seeds, with a marker batch of two so the first
// stage also waits at the run-ahead window: each seed must commit the
// sequential digest with one misspeculation per rare iteration, and repeat
// bit for bit.
func TestScheduleExplorerRearm(t *testing.T) {
	const n = 128
	rare := make(map[uint64]bool)
	for k := uint64(9); k+3 < n; k += 10 {
		rare[k] = true
	}
	cfg := smallConfig(5, pipeline.SpecDOALL())
	cfg.MarkerFlushIters = 2
	ref := &rearmProg{n: n, rare: rare}
	_, seqImg, err := RunSequential(cfg, ref, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.digest(seqImg)
	run := func(seed uint64) (Result, uint64, uint64) {
		c := cfg
		tr := trace.NewMetricsOnly()
		c.Tracer = tr
		prog := &rearmProg{n: n, rare: rare}
		sys, res, err := runHooked(c, prog, seededHook(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return res, prog.digest(sys.CommitImage()), tr.Metrics().Counter("window.waits").Value()
	}
	waits := uint64(0)
	for seed := uint64(1); seed <= 6; seed++ {
		res, digest, w := run(seed)
		if digest != want || res.Committed != n || res.Misspecs != uint64(len(rare)) {
			t.Errorf("seed %d: digest %#x committed %d misspecs %d, want %#x, %d and %d",
				seed, digest, res.Committed, res.Misspecs, want, n, len(rare))
		}
		if again, digest2, w2 := run(seed); !reflect.DeepEqual(again, res) || digest2 != digest || w2 != w {
			t.Errorf("seed %d: the repeat run differs:\n got %+v\nwant %+v", seed, again, res)
		}
		waits += w
	}
	if waits == 0 {
		t.Error("no seed waited at the run-ahead window")
	}
}

// seededHook is one point of the schedule explorer's space: every message
// gains 0-2 µs of extra latency and every rank computes 1-2× slower, both
// drawn from a hash of the seed, so a seed names one reproducible
// interleaving.
func seededHook(seed uint64) schedHook {
	mix := func(xs ...uint64) uint64 { // splitmix64 over the words
		h := seed
		for _, x := range xs {
			h += x + 0x9e3779b97f4a7c15
			h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
			h = (h ^ h>>27) * 0x94d049bb133111eb
			h ^= h >> 31
		}
		return h
	}
	return schedHook{
		latency: func(from, to int, now platform.Time) platform.Duration {
			return platform.Duration(mix(uint64(from), uint64(to), uint64(now)) % uint64(2*platform.Microsecond))
		},
		dilation: func(rank int) func(platform.Time, platform.Duration) platform.Duration {
			f := 1 + float64(mix(uint64(rank))%1000)/1000
			return func(_ platform.Time, d platform.Duration) platform.Duration {
				return platform.Duration(float64(d) * f)
			}
		},
	}
}

// TestScheduleExplorer runs one misspeculating Spec-DSWP program on vtime,
// clean and then under seeded schedule perturbations (schedHook): each
// interleaving must be reproducible — a repeat run and two concurrent runs
// give the same Result, and one seed's exported trace is byte-identical
// across two runs — and correct — the committed count and every committed
// word equal the clean run's — while its timing differs from the clean
// run's, and across seeds.
func TestScheduleExplorer(t *testing.T) {
	const n = 80
	misspecs := map[uint64]bool{9: true, 41: true}
	cfg := smallConfig(6, pipeline.SpecDSWP("S", "DOALL", "S"))
	run := func(hook schedHook, tr *trace.Tracer) (Result, []uint64) {
		c := cfg
		c.Tracer = tr
		prog := &pipeProg{n: n, misspecs: misspecs}
		sys, res, err := runHooked(c, prog, hook)
		if err != nil {
			t.Error(err)
			return Result{}, nil
		}
		words := make([]uint64, n)
		for k := range words {
			words[k] = sys.CommitImage().Load(prog.out + uva.Addr(k*8))
		}
		return res, words
	}
	clean, cleanWords := run(schedHook{}, nil)
	if clean.Misspecs != uint64(len(misspecs)) || clean.Committed < n {
		t.Fatalf("clean run: %+v", clean)
	}
	for k, w := range cleanWords {
		if want := (&pipeProg{}).expect(uint64(k)); w != want {
			t.Fatalf("clean run: out[%d] = %d, want %d", k, w, want)
		}
	}
	elapsed := make(map[platform.Duration]bool)
	for seed := uint64(1); seed <= 6; seed++ {
		hook := seededHook(seed)
		base, words := run(hook, nil)
		if base.Committed != clean.Committed || !reflect.DeepEqual(words, cleanWords) {
			t.Errorf("seed %d: committed %d MTXs, words equal %v; clean committed %d",
				seed, base.Committed, reflect.DeepEqual(words, cleanWords), clean.Committed)
		}
		if base.Elapsed == clean.Elapsed {
			t.Errorf("seed %d: elapsed %v equals the clean run's: the hook never engaged", seed, base.Elapsed)
		}
		elapsed[base.Elapsed] = true
		results := make([]Result, 3)
		results[0], _ = run(hook, nil)
		var wg sync.WaitGroup
		for i := 1; i < len(results); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], _ = run(hook, nil)
			}()
		}
		wg.Wait()
		for i, got := range results {
			if !reflect.DeepEqual(got, base) {
				t.Errorf("seed %d: run %d differs:\n got %+v\nwant %+v", seed, i, got, base)
			}
		}
	}
	if len(elapsed) < 2 {
		t.Errorf("every seed gave elapsed %v: the seeds explore one schedule", elapsed)
	}
	t.Logf("clean run %v, %d MTXs; perturbed runs %v", clean.Elapsed, clean.Committed, elapsed)
	export := func() []byte {
		tr := trace.New()
		run(seededHook(3), tr)
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := export(), export(); !bytes.Equal(a, b) {
		t.Errorf("perturbed traces differ: %d vs %d bytes", len(a), len(b))
	}
}
