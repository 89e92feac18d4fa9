package core

import (
	"sync"
	"testing"

	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// Cross-shard commit: an MTX whose write set spans pages owned by different
// commit shards must commit (or abort) atomically through the ordered vote,
// and the committed state must be independent of the shard count, of run
// repetition, and of host-process concurrency.

// crossRegions is the number of owner-block-separated output regions the
// fixture writes per iteration; with 2+ shards the HRW table almost surely
// scatters them across owners, and the test asserts that it did.
const crossRegions = 8

// crossProg writes every iteration's result into crossRegions regions, each
// allocated in its own 64-page owner block, plus a shared scale word that
// iteration flip rewrites — so every MTX is multi-shard and the flip forces
// a cross-shard misspeculation/recovery cycle.
type crossProg struct {
	n     uint64
	flip  uint64 // >= n disables the misspeculation
	scale uva.Addr
	outs  []uva.Addr
}

func (p *crossProg) Setup(ctx *SeqCtx) {
	p.scale = ctx.AllocWords(1)
	p.outs = p.outs[:0]
	for r := 0; r < crossRegions; r++ {
		// Pad to the next owner block so consecutive regions hash
		// independently in the HRW table.
		ctx.AllocWords(pageShardBlock * uva.PageWords)
		p.outs = append(p.outs, ctx.AllocWords(int(p.n)))
	}
	ctx.Store(p.scale, 5)
}

func (p *crossProg) Stage(ctx *Ctx, _ int, iter uint64) bool {
	if iter >= p.n {
		return false
	}
	s := ctx.Read(p.scale)
	ctx.Compute(1200)
	for r, out := range p.outs {
		ctx.Write(out+uva.Addr(iter*8), (iter+1)*s+uint64(r))
	}
	if iter == p.flip {
		ctx.Write(p.scale, 11)
	}
	return true
}

func (p *crossProg) SeqIter(ctx *SeqCtx, iter uint64) {
	s := ctx.Load(p.scale)
	ctx.Compute(1200)
	for r, out := range p.outs {
		ctx.Store(out+uva.Addr(iter*8), (iter+1)*s+uint64(r))
	}
	if iter == p.flip {
		ctx.Store(p.scale, 11)
	}
}

func (p *crossProg) expect(k uint64, r int) uint64 {
	s := uint64(5)
	if k > p.flip {
		s = 11
	}
	return (k+1)*s + uint64(r)
}

func crossConfig(shards int) Config {
	cfg := smallConfig(8+shards, pipeline.SpecDOALL())
	cfg.CommitShards = shards
	return cfg
}

// verifyCross checks the committed image against the sequential semantics.
func verifyCross(t *testing.T, sys *System, prog *crossProg) {
	t.Helper()
	img := sys.CommitImage()
	for r, out := range prog.outs {
		for k := uint64(0); k < prog.n; k++ {
			if got := img.Load(out + uva.Addr(k*8)); got != prog.expect(k, r) {
				t.Fatalf("out[%d][%d] = %d, want %d", r, k, got, prog.expect(k, r))
			}
		}
	}
}

// TestCommitShardRankLayout pins the rank arithmetic: workers first, then
// the try-commit unit, then the commit shards.
func TestCommitShardRankLayout(t *testing.T) {
	cfg := smallConfig(10, pipeline.SpecDOALL())
	cfg.CommitShards = 3
	if cfg.Workers() != 6 {
		t.Fatalf("Workers = %d, want 6 (10 cores - 1 TC - 3 CU)", cfg.Workers())
	}
	if cfg.tryCommitRank() != 6 {
		t.Fatalf("tryCommitRank = %d, want 6", cfg.tryCommitRank())
	}
	for k := 0; k < 3; k++ {
		if got := cfg.commitShardRank(k); got != 7+k {
			t.Fatalf("commitShardRank(%d) = %d, want %d", k, got, 7+k)
		}
	}
}

func TestCrossShardCommit(t *testing.T) {
	for _, shards := range []int{2, 4} {
		prog := &crossProg{n: 48, flip: 13}
		sys, res := runProg(t, crossConfig(shards), prog)
		owners := map[int]bool{}
		for _, out := range prog.outs {
			owners[sys.ownerOf(out.Page())] = true
		}
		if len(owners) < 2 {
			t.Fatalf("shards=%d: fixture regions all landed on one owner; not a cross-shard test", shards)
		}
		if res.Committed != prog.n {
			t.Fatalf("shards=%d: committed %d, want %d", shards, res.Committed, prog.n)
		}
		if res.Misspecs == 0 {
			t.Fatalf("shards=%d: flip produced no misspeculation; cross-shard recovery not exercised", shards)
		}
		verifyCross(t, sys, prog)
	}
}

// TestCrossShardMatchesSingleShard pins shard-count independence: the
// committed MTX and misspeculation counts of the sharded pipeline equal the
// single-commit-unit run's, and both converge to the same memory.
func TestCrossShardMatchesSingleShard(t *testing.T) {
	base := &crossProg{n: 48, flip: 13}
	_, want := runProg(t, crossConfig(1), base)
	for _, shards := range []int{2, 4} {
		prog := &crossProg{n: 48, flip: 13}
		sys, res := runProg(t, crossConfig(shards), prog)
		if res.Committed != want.Committed || res.Misspecs != want.Misspecs {
			t.Fatalf("shards=%d: committed/misspecs %d/%d, 1-shard %d/%d",
				shards, res.Committed, res.Misspecs, want.Committed, want.Misspecs)
		}
		verifyCross(t, sys, prog)
	}
}

// TestCrossShardDeterministicRepeat runs the same sharded configuration
// repeatedly on vtime: every observable — virtual elapsed time included —
// must be bit-identical run to run.
func TestCrossShardDeterministicRepeat(t *testing.T) {
	prog := &crossProg{n: 48, flip: 13}
	_, first := runProg(t, crossConfig(4), prog)
	for rep := 1; rep < 3; rep++ {
		p := &crossProg{n: 48, flip: 13}
		_, res := runProg(t, crossConfig(4), p)
		if res.Elapsed != first.Elapsed || res.Committed != first.Committed ||
			res.Misspecs != first.Misspecs || res.Traffic != first.Traffic {
			t.Fatalf("rep %d diverged:\n  got  %+v\n  want %+v", rep, res, first)
		}
	}
}

// TestCrossShardDeterministicConcurrent runs independent sharded systems on
// concurrent host goroutines; results must match a solo run exactly, i.e.
// no shared mutable state leaks between System instances.
func TestCrossShardDeterministicConcurrent(t *testing.T) {
	ref := &crossProg{n: 48, flip: 13}
	_, want := runProg(t, crossConfig(4), ref)
	var wg sync.WaitGroup
	results := make([]Result, 4)
	errs := make([]error, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sys, err := NewSystem(crossConfig(4), &crossProg{n: 48, flip: 13}, nil)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = sys.Run()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if results[i].Elapsed != want.Elapsed || results[i].Committed != want.Committed ||
			results[i].Misspecs != want.Misspecs {
			t.Fatalf("concurrent run %d diverged:\n  got  %+v\n  want %+v", i, results[i], want)
		}
	}
}
