package core

import (
	"fmt"
	"testing"
	"time"

	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// smallCluster keeps test machines modest.
func smallConfig(cores int, plan pipeline.Plan) Config {
	cfg := DefaultConfig(cores, plan)
	cfg.Cluster.Nodes = 8
	cfg.Cluster.CoresPerNode = (cores + 7) / 8
	if cfg.Cluster.CoresPerNode < 1 {
		cfg.Cluster.CoresPerNode = 1
	}
	return cfg
}

// pipeProg is a 3-stage Spec-DSWP test program: stage 0 reads in[k] from
// memory and produces it; stage 1 computes f(x) with some virtual work;
// stage 2 writes out[k]. All program data lives in UVA memory.
type pipeProg struct {
	n        uint64
	in, out  uva.Addr
	misspecs map[uint64]bool // iterations whose stage-1 flags misspeculation
}

func (p *pipeProg) f(x uint64) uint64 { return x*2654435761 + 17 }

func (p *pipeProg) Setup(ctx *SeqCtx) {
	n := int(p.n)
	if n == 0 {
		n = 1
	}
	p.in = ctx.AllocWords(n)
	p.out = ctx.AllocWords(n)
	for k := uint64(0); k < p.n; k++ {
		ctx.Store(p.in+uva.Addr(k*8), k*3+1)
	}
}

func (p *pipeProg) Stage(ctx *Ctx, stage int, iter uint64) bool {
	switch stage {
	case 0:
		if iter >= p.n {
			return false
		}
		v := ctx.Load(p.in + uva.Addr(iter*8))
		ctx.Produce(1, v)
	case 1:
		if p.misspecs[iter] {
			ctx.Misspec()
		}
		v := ctx.Consume(0)
		ctx.Compute(30000) // the parallel stage dominates, as in DSWP+
		ctx.Produce(2, p.f(v))
	case 2:
		v := ctx.Consume(1)
		ctx.Write(p.out+uva.Addr(iter*8), v)
	}
	return true
}

func (p *pipeProg) SeqIter(ctx *SeqCtx, iter uint64) {
	v := ctx.Load(p.in + uva.Addr(iter*8))
	ctx.Compute(30000)
	ctx.Store(p.out+uva.Addr(iter*8), p.f(v))
}

func (p *pipeProg) expect(k uint64) uint64 { return p.f(k*3 + 1) }

func runProg(t *testing.T, cfg Config, prog Program) (*System, Result) {
	t.Helper()
	sys, res, err := runWithin(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

// runWithin runs prog under a wall-clock deadline, so that a wedged run on a
// live backend — which ignores Config.Horizon — is an error, not a hang (the
// stuck goroutines are left behind for the failing test binary to exit on).
func runWithin(cfg Config, prog Program) (*System, Result, error) {
	return runHooked(cfg, prog, schedHook{})
}

// runHooked is runWithin with the schedule hook set between NewSystem and
// Run.
func runHooked(cfg Config, prog Program, hook schedHook) (*System, Result, error) {
	sys, err := NewSystem(cfg, prog, nil)
	if err != nil {
		return nil, Result{}, err
	}
	sys.hook = hook
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := sys.Run()
		done <- outcome{res, err}
	}()
	const deadline = 30 * time.Second
	select {
	case o := <-done:
		return sys, o.res, o.err
	case <-time.After(deadline):
		return nil, Result{}, fmt.Errorf("core: %s on %d cores (%s): no result after %v — wedged",
			cfg.Plan.Name, cfg.TotalCores, cfg.Backend, deadline)
	}
}

func TestSpecDSWPPipelineCommitsCorrectly(t *testing.T) {
	prog := &pipeProg{n: 40}
	sys, res := runProg(t, smallConfig(6, pipeline.SpecDSWP("S", "DOALL", "S")), prog)
	if res.Committed != 40 {
		t.Fatalf("Committed = %d, want 40", res.Committed)
	}
	if res.Misspecs != 0 {
		t.Fatalf("Misspecs = %d, want 0", res.Misspecs)
	}
	img := sys.CommitImage()
	for k := uint64(0); k < prog.n; k++ {
		if got := img.Load(prog.out + uva.Addr(k*8)); got != prog.expect(k) {
			t.Fatalf("out[%d] = %d, want %d", k, got, prog.expect(k))
		}
	}
}

func TestPipelineZeroIterations(t *testing.T) {
	prog := &pipeProg{n: 0}
	_, res := runProg(t, smallConfig(5, pipeline.SpecDSWP("S", "DOALL", "S")), prog)
	if res.Committed != 0 || res.Misspecs != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestWorkerMisspecRecovers(t *testing.T) {
	prog := &pipeProg{n: 30, misspecs: map[uint64]bool{11: true}}
	sys, res := runProg(t, smallConfig(6, pipeline.SpecDSWP("S", "DOALL", "S")), prog)
	if res.Misspecs != 1 {
		t.Fatalf("Misspecs = %d, want 1", res.Misspecs)
	}
	// 30 total commits: 29 via the pipeline + 1 sequential re-execution.
	if res.Committed != 30 {
		t.Fatalf("Committed = %d, want 30", res.Committed)
	}
	if res.ERM <= 0 || res.SEQ <= 0 {
		t.Fatalf("recovery phases not measured: %+v", res)
	}
	img := sys.CommitImage()
	for k := uint64(0); k < prog.n; k++ {
		if got := img.Load(prog.out + uva.Addr(k*8)); got != prog.expect(k) {
			t.Fatalf("out[%d] = %d after recovery, want %d", k, got, prog.expect(k))
		}
	}
}

func TestMisspecOnLastIteration(t *testing.T) {
	prog := &pipeProg{n: 20, misspecs: map[uint64]bool{19: true}}
	sys, res := runProg(t, smallConfig(6, pipeline.SpecDSWP("S", "DOALL", "S")), prog)
	if res.Misspecs != 1 || res.Committed != 20 {
		t.Fatalf("res = %+v", res)
	}
	img := sys.CommitImage()
	if got := img.Load(prog.out + uva.Addr(19*8)); got != prog.expect(19) {
		t.Fatalf("out[19] = %d, want %d", got, prog.expect(19))
	}
}

func TestMultipleMisspecs(t *testing.T) {
	prog := &pipeProg{n: 40, misspecs: map[uint64]bool{5: true, 17: true, 33: true}}
	sys, res := runProg(t, smallConfig(7, pipeline.SpecDSWP("S", "DOALL", "S")), prog)
	if res.Misspecs != 3 || res.Committed != 40 {
		t.Fatalf("res = %+v", res)
	}
	img := sys.CommitImage()
	for k := uint64(0); k < prog.n; k++ {
		if got := img.Load(prog.out + uva.Addr(k*8)); got != prog.expect(k) {
			t.Fatalf("out[%d] = %d, want %d", k, got, prog.expect(k))
		}
	}
}

// doallProg exercises Spec-DOALL with real cross-iteration conflict
// detection: every iteration Reads a shared scale factor; iteration flip
// Writes it. Iterations after flip that ran ahead speculatively loaded the
// stale value and must be squashed by the try-commit unit.
type doallProg struct {
	n        uint64
	flip     uint64
	scale    uva.Addr
	out      uva.Addr
	seqIters int
}

func (p *doallProg) Setup(ctx *SeqCtx) {
	p.scale = ctx.AllocWords(1)
	p.out = ctx.AllocWords(int(p.n))
	ctx.Store(p.scale, 5)
}

func (p *doallProg) Stage(ctx *Ctx, _ int, iter uint64) bool {
	if iter >= p.n {
		return false
	}
	s := ctx.Read(p.scale)
	ctx.Compute(1500)
	ctx.Write(p.out+uva.Addr(iter*8), (iter+1)*s)
	if iter == p.flip {
		ctx.Write(p.scale, 9)
	}
	return true
}

func (p *doallProg) SeqIter(ctx *SeqCtx, iter uint64) {
	p.seqIters++
	s := ctx.Load(p.scale)
	ctx.Compute(1500)
	ctx.Store(p.out+uva.Addr(iter*8), (iter+1)*s)
	if iter == p.flip {
		ctx.Store(p.scale, 9)
	}
}

func (p *doallProg) expect(k uint64) uint64 {
	if k <= p.flip {
		return (k + 1) * 5
	}
	return (k + 1) * 9
}

func TestValueBasedConflictDetection(t *testing.T) {
	prog := &doallProg{n: 48, flip: 13}
	sys, res := runProg(t, smallConfig(8, pipeline.SpecDOALL()), prog)
	if res.Misspecs == 0 {
		t.Fatal("expected at least one value-based misspeculation")
	}
	if sys.tc.Conflicts == 0 {
		t.Fatal("try-commit unit recorded no conflicts")
	}
	img := sys.CommitImage()
	for k := uint64(0); k < prog.n; k++ {
		if got := img.Load(prog.out + uva.Addr(k*8)); got != prog.expect(k) {
			t.Fatalf("out[%d] = %d, want %d (misspecs=%d seq=%d)",
				k, got, prog.expect(k), res.Misspecs, prog.seqIters)
		}
	}
	if got := img.Load(prog.scale); got != 9 {
		t.Fatalf("scale = %d, want 9", got)
	}
}

// tlsProg is a running sum parallelized TLS-style: the accumulator is a
// synchronized dependence forwarded worker-to-worker around the ring.
type tlsProg struct {
	n       uint64
	in, acc uva.Addr
}

func (p *tlsProg) Setup(ctx *SeqCtx) {
	p.in = ctx.AllocWords(int(p.n))
	p.acc = ctx.AllocWords(1)
	for k := uint64(0); k < p.n; k++ {
		ctx.Store(p.in+uva.Addr(k*8), k+7)
	}
}

func (p *tlsProg) Stage(ctx *Ctx, _ int, iter uint64) bool {
	if iter >= p.n {
		return false
	}
	var sum uint64
	if ctx.EpochFirst() {
		sum = ctx.Load(p.acc)
	} else {
		sum = ctx.SyncRecv()
	}
	ctx.Compute(1000)
	sum += ctx.Load(p.in + uva.Addr(iter*8))
	ctx.Write(p.acc, sum)
	ctx.SyncSend(sum)
	return true
}

func (p *tlsProg) SeqIter(ctx *SeqCtx, iter uint64) {
	sum := ctx.Load(p.acc)
	ctx.Compute(1000)
	sum += ctx.Load(p.in + uva.Addr(iter*8))
	ctx.Store(p.acc, sum)
}

func TestTLSSyncRing(t *testing.T) {
	prog := &tlsProg{n: 36}
	plan := pipeline.SpecDOALL()
	plan.Name = "TLS"
	plan.Sync = true
	sys, res := runProg(t, smallConfig(6, plan), prog)
	if res.Committed != 36 {
		t.Fatalf("Committed = %d", res.Committed)
	}
	var want uint64
	for k := uint64(0); k < prog.n; k++ {
		want += k + 7
	}
	if got := sys.CommitImage().Load(prog.acc); got != want {
		t.Fatalf("acc = %d, want %d", got, want)
	}
}

func TestDeterministicElapsed(t *testing.T) {
	run := func() Result {
		prog := &pipeProg{n: 25, misspecs: map[uint64]bool{9: true}}
		_, res := runProg(t, smallConfig(6, pipeline.SpecDSWP("S", "DOALL", "S")), prog)
		return res
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed || a.Traffic != b.Traffic || a.Events != b.Events {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMoreCoresRunFaster(t *testing.T) {
	elapsed := func(cores int) float64 {
		prog := &pipeProg{n: 120}
		_, res := runProg(t, smallConfig(cores, pipeline.SpecDSWP("S", "DOALL", "S")), prog)
		return res.Elapsed.Seconds()
	}
	t4, t10 := elapsed(5), elapsed(11)
	if t10 >= t4 {
		t.Fatalf("11 cores (%.6fs) not faster than 5 cores (%.6fs)", t10, t4)
	}
}

func TestOccupancyRoutingCorrectness(t *testing.T) {
	prog := &pipeProg{n: 50}
	plan := pipeline.SpecDSWP("S", "DOALL", "S")
	plan.Occupancy = true
	sys, res := runProg(t, smallConfig(7, plan), prog)
	if res.Committed != 50 {
		t.Fatalf("Committed = %d", res.Committed)
	}
	img := sys.CommitImage()
	for k := uint64(0); k < prog.n; k++ {
		if got := img.Load(prog.out + uva.Addr(k*8)); got != prog.expect(k) {
			t.Fatalf("out[%d] = %d, want %d", k, got, prog.expect(k))
		}
	}
}

func TestConfigValidation(t *testing.T) {
	plan := pipeline.SpecDSWP("S", "DOALL", "S")
	if _, err := NewSystem(smallConfig(4, plan), &pipeProg{n: 1}, nil); err == nil {
		t.Error("4 cores (2 workers) accepted for a 3-stage plan")
	}
	big := smallConfig(6, plan)
	big.TotalCores = big.Cluster.Ranks() + 1
	if _, err := NewSystem(big, &pipeProg{n: 1}, nil); err == nil {
		t.Error("core count beyond machine accepted")
	}
	sync := pipeline.SpecDSWP("S", "DOALL", "S")
	sync.Sync = true
	if _, err := NewSystem(smallConfig(6, sync), &pipeProg{n: 1}, nil); err == nil {
		t.Error("sync ring on a multi-stage plan accepted")
	}
}

func TestCOATransfersPages(t *testing.T) {
	prog := &pipeProg{n: 20}
	cfg := smallConfig(6, pipeline.SpecDSWP("S", "DOALL", "S"))
	sys, _ := runProg(t, cfg, prog)
	faults := uint64(0)
	for _, w := range sys.workers {
		faults += w.img.Faults
	}
	if faults == 0 {
		t.Fatal("no Copy-On-Access faults despite workers reading committed data")
	}
}

// With cluster.DefaultConfig placement, adjacent pipeline stages sit on
// different nodes; the run must still complete with high latency.
func TestHighLatencyStillCorrect(t *testing.T) {
	prog := &pipeProg{n: 20}
	cfg := smallConfig(6, pipeline.SpecDSWP("S", "DOALL", "S"))
	cfg.Cluster.InterNodeLatency = 50 * 1000 // 50µs
	sys, res := runProg(t, cfg, prog)
	if res.Committed != 20 {
		t.Fatalf("Committed = %d", res.Committed)
	}
	img := sys.CommitImage()
	if got := img.Load(prog.out + uva.Addr(19*8)); got != prog.expect(19) {
		t.Fatalf("out[19] = %d", got)
	}
}
