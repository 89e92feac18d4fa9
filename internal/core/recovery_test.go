package core

import (
	"testing"
	"testing/quick"

	"dsmtx/internal/pipeline"
	"dsmtx/internal/platform"
	"dsmtx/internal/uva"
)

// Deeper recovery-path coverage: back-to-back misspeculations, misspec on
// the first iteration, misspec storms, TLS recovery, and property tests
// over arbitrary misspec sets — on vtime and live on host, where run-ahead
// is bounded in every epoch (awaitWindow) and these short loops all end
// inside the window's floor.

// onBackends runs body once per in-process backend with a config builder
// for it. Runs go through runWithin, so a wedged live run fails.
func onBackends(t *testing.T, body func(t *testing.T, config func(cores int, plan pipeline.Plan) Config)) {
	for _, backend := range []Backend{BackendVTime, BackendHost} {
		t.Run(backend.String(), func(t *testing.T) {
			body(t, func(cores int, plan pipeline.Plan) Config {
				cfg := smallConfig(cores, plan)
				cfg.Backend = backend
				cfg.Horizon = platform.Second // vtime's wedge guard; live runs have runWithin's
				return cfg
			})
		})
	}
}

func misspecsOf(iters ...uint64) map[uint64]bool {
	m := make(map[uint64]bool)
	for _, k := range iters {
		m[k] = true
	}
	return m
}

func verifyPipeOut(t *testing.T, sys *System, prog *pipeProg) {
	t.Helper()
	img := sys.CommitImage()
	for k := uint64(0); k < prog.n; k++ {
		if got := img.Load(prog.out + uva.Addr(k*8)); got != prog.expect(k) {
			t.Fatalf("out[%d] = %d, want %d", k, got, prog.expect(k))
		}
	}
}

func TestMisspecOnFirstIteration(t *testing.T) {
	onBackends(t, func(t *testing.T, config func(int, pipeline.Plan) Config) {
		prog := &pipeProg{n: 15, misspecs: misspecsOf(0)}
		sys, res := runProg(t, config(6, pipeline.SpecDSWP("S", "DOALL", "S")), prog)
		if res.Misspecs != 1 || res.Committed != 15 {
			t.Fatalf("res = %+v", res)
		}
		verifyPipeOut(t, sys, prog)
	})
}

func TestBackToBackMisspecs(t *testing.T) {
	onBackends(t, func(t *testing.T, config func(int, pipeline.Plan) Config) {
		prog := &pipeProg{n: 20, misspecs: misspecsOf(7, 8, 9)}
		sys, res := runProg(t, config(6, pipeline.SpecDSWP("S", "DOALL", "S")), prog)
		if res.Misspecs != 3 || res.Committed != 20 {
			t.Fatalf("res = %+v", res)
		}
		verifyPipeOut(t, sys, prog)
	})
}

func TestMisspecStorm(t *testing.T) {
	// Every third iteration misspeculates: the pipeline spends most of its
	// time in recovery yet must still commit the exact sequential result.
	m := make(map[uint64]bool)
	for k := uint64(0); k < 30; k += 3 {
		m[k] = true
	}
	onBackends(t, func(t *testing.T, config func(int, pipeline.Plan) Config) {
		prog := &pipeProg{n: 30, misspecs: m}
		sys, res := runProg(t, config(7, pipeline.SpecDSWP("S", "DOALL", "S")), prog)
		if res.Misspecs != 10 || res.Committed != 30 {
			t.Fatalf("res = %+v", res)
		}
		verifyPipeOut(t, sys, prog)
	})
}

// tlsMisspecProg: a TLS running sum where chosen iterations take the
// speculated-away error path.
type tlsMisspecProg struct {
	n        uint64
	misspecs map[uint64]bool
	in, acc  uva.Addr
}

func (p *tlsMisspecProg) Setup(ctx *SeqCtx) {
	p.in = ctx.AllocWords(int(p.n))
	p.acc = ctx.AllocWords(1)
	for k := uint64(0); k < p.n; k++ {
		ctx.Store(p.in+uva.Addr(k*8), k*k+3)
	}
}

func (p *tlsMisspecProg) Stage(ctx *Ctx, _ int, iter uint64) bool {
	if iter >= p.n {
		return false
	}
	if p.misspecs[iter] {
		ctx.Misspec()
	}
	var sum uint64
	if ctx.EpochFirst() {
		sum = ctx.Load(p.acc)
	} else {
		sum = ctx.SyncRecv()
	}
	sum += ctx.Load(p.in + uva.Addr(iter*8))
	ctx.Write(p.acc, sum)
	ctx.SyncSend(sum)
	return true
}

func (p *tlsMisspecProg) SeqIter(ctx *SeqCtx, iter uint64) {
	// The error path contributes double (a retry with penalty, say).
	v := ctx.Load(p.in + uva.Addr(iter*8))
	if p.misspecs[iter] {
		v *= 2
	}
	ctx.Store(p.acc, ctx.Load(p.acc)+v)
}

func (p *tlsMisspecProg) expect() uint64 {
	var sum uint64
	for k := uint64(0); k < p.n; k++ {
		v := k*k + 3
		if p.misspecs[k] {
			v *= 2
		}
		sum += v
	}
	return sum
}

func TestTLSRecovery(t *testing.T) {
	plan := pipeline.SpecDOALL()
	plan.Sync = true
	onBackends(t, func(t *testing.T, config func(int, pipeline.Plan) Config) {
		prog := &tlsMisspecProg{n: 24, misspecs: misspecsOf(5, 13)}
		sys, res := runProg(t, config(6, plan), prog)
		if res.Misspecs != 2 || res.Committed != 24 {
			t.Fatalf("res = %+v", res)
		}
		if got := sys.CommitImage().Load(prog.acc); got != prog.expect() {
			t.Fatalf("acc = %d, want %d", got, prog.expect())
		}
	})
}

// Property: for ANY misspeculation set the pipeline commits the sequential
// result, and Committed always equals the trip count.
func TestRecoveryProperty(t *testing.T) {
	onBackends(t, func(t *testing.T, config func(int, pipeline.Plan) Config) {
		f := func(raw []uint8, coreSel uint8) bool {
			const n = 18
			m := make(map[uint64]bool)
			for _, r := range raw {
				m[uint64(r)%n] = true
			}
			cores := []int{5, 6, 9, 12}[coreSel%4]
			prog := &pipeProg{n: n, misspecs: m}
			// A deadlock must fail, not hang: config sets the horizon.
			sys, res, err := runWithin(config(cores, pipeline.SpecDSWP("S", "DOALL", "S")), prog)
			if err != nil {
				return false
			}
			if res.Committed != n || res.Misspecs != uint64(len(m)) {
				return false
			}
			img := sys.CommitImage()
			for k := uint64(0); k < n; k++ {
				if img.Load(prog.out+uva.Addr(k*8)) != prog.expect(k) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: the Spec-DOALL conflict-detection path commits the sequential
// result for any flip point and core count.
func TestConflictDetectionProperty(t *testing.T) {
	onBackends(t, func(t *testing.T, config func(int, pipeline.Plan) Config) {
		f := func(flip uint8, coreSel uint8) bool {
			n := uint64(30)
			prog := &doallProg{n: n, flip: uint64(flip) % n}
			cores := []int{4, 7, 11, 16}[coreSel%4]
			sys, _, err := runWithin(config(cores, pipeline.SpecDOALL()), prog)
			if err != nil {
				return false
			}
			img := sys.CommitImage()
			for k := uint64(0); k < n; k++ {
				if img.Load(prog.out+uva.Addr(k*8)) != prog.expect(k) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatal(err)
		}
	})
}

// bulkReadProg reads, validated, a 64 KiB block that straddles a 1 MiB
// address boundary, then writes its own 1 KiB slice of it: every iteration
// depends on the slices earlier iterations wrote, so bulk-read validation
// fails and recovers.
type bulkReadProg struct {
	n    uint64
	base uva.Addr
}

const bulkReadBlock = 64 << 10

func (p *bulkReadProg) Setup(ctx *SeqCtx) {
	// Burn address space up to just below the boundary, then allocate the
	// block across it.
	const boundary = 1 << 20
	ctx.Alloc(boundary - uva.PageSize - 512)
	p.base = ctx.Alloc(bulkReadBlock)
	if uint64(p.base)/boundary == (uint64(p.base)+bulkReadBlock)/boundary {
		panic("test setup: block does not straddle a 1 MiB boundary")
	}
}

func (p *bulkReadProg) chunk(iter uint64) []byte {
	b := make([]byte, 1024)
	for i := range b {
		b[i] = byte(iter)
	}
	return b
}

func (p *bulkReadProg) Stage(ctx *Ctx, _ int, iter uint64) bool {
	if iter >= p.n {
		return false
	}
	ctx.ReadBytes(p.base, bulkReadBlock)
	ctx.WriteBytes(p.base+uva.Addr(iter*1024), p.chunk(iter))
	ctx.Compute(20000)
	return true
}

func (p *bulkReadProg) SeqIter(ctx *SeqCtx, iter uint64) {
	ctx.LoadBytes(p.base, bulkReadBlock)
	ctx.StoreBytes(p.base+uva.Addr(iter*1024), p.chunk(iter))
	ctx.Compute(20000)
}

// TestBulkReadConflict is the one core fixture whose ReadBytes validation
// fails: the try-commit unit must catch the stale block, and recovery must
// still commit the sequential bytes.
func TestBulkReadConflict(t *testing.T) {
	onBackends(t, func(t *testing.T, config func(int, pipeline.Plan) Config) {
		cfg := config(7, pipeline.SpecDOALL())
		prog := &bulkReadProg{n: 12}
		sys, res := runProg(t, cfg, prog)
		if res.Misspecs == 0 || res.Committed != prog.n {
			t.Fatalf("res = %+v, want misspecs > 0 and %d committed", res, prog.n)
		}
		ref := &bulkReadProg{n: prog.n}
		_, img, err := RunSequential(cfg, ref, ref.n, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := sys.CommitImage().ChecksumRange(prog.base, bulkReadBlock)
		if want := img.ChecksumRange(ref.base, bulkReadBlock); got != want {
			t.Fatalf("block checksum %#x, sequential %#x", got, want)
		}
	})
}

// Recovery timing invariants: phases are non-negative and MIS runs slower
// than clean runs.
func TestRecoveryOverheadAccounting(t *testing.T) {
	clean := &pipeProg{n: 40}
	_, cleanRes := runProg(t, smallConfig(8, pipeline.SpecDSWP("S", "DOALL", "S")), clean)
	dirty := &pipeProg{n: 40, misspecs: misspecsOf(10, 20, 30)}
	_, dirtyRes := runProg(t, smallConfig(8, pipeline.SpecDSWP("S", "DOALL", "S")), dirty)
	if dirtyRes.Elapsed <= cleanRes.Elapsed {
		t.Fatalf("misspeculating run (%v) not slower than clean (%v)", dirtyRes.Elapsed, cleanRes.Elapsed)
	}
	for name, v := range map[string]int64{
		"ERM": int64(dirtyRes.ERM), "FLQ": int64(dirtyRes.FLQ),
		"SEQ": int64(dirtyRes.SEQ), "RFP": int64(dirtyRes.RFP),
	} {
		if v < 0 {
			t.Errorf("%s = %d, want >= 0", name, v)
		}
	}
	if dirtyRes.ERM == 0 || dirtyRes.SEQ == 0 {
		t.Error("ERM/SEQ phases should be nonzero with 3 recoveries")
	}
}

// The commit unit's memory after a run with recoveries must be reusable as
// the next invocation's initial image (epoch chaining under misspec).
func TestInvocationChainingAfterRecovery(t *testing.T) {
	prog := &pipeProg{n: 20, misspecs: misspecsOf(4)}
	cfg := smallConfig(6, pipeline.SpecDSWP("S", "DOALL", "S"))
	sys1, _ := runProg(t, cfg, prog)
	// Second invocation re-runs Setup against the same image; results must
	// still be exact.
	prog2 := &pipeProg{n: 20}
	sys2, err := NewSystem(cfg, prog2, sys1.CommitImage())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Run(); err != nil {
		t.Fatal(err)
	}
	verifyPipeOut(t, sys2, prog2)
}
