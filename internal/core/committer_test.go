package core

import (
	"slices"
	"testing"

	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// committerProg is pipeProg with the Committer hook: Commit records each
// iteration it sees and folds out[iter] into an accumulator word, so a hook
// that runs twice, is skipped, runs out of order or runs before its MTX's
// stores land changes the checksum.
type committerProg struct {
	pipeProg
	acc     uva.Addr
	commits []uint64
}

func (p *committerProg) Setup(ctx *SeqCtx) {
	p.pipeProg.Setup(ctx)
	p.acc = ctx.AllocWords(1)
}

func (p *committerProg) Commit(ctx *SeqCtx, iter uint64) {
	p.commits = append(p.commits, iter)
	v := ctx.Load(p.out + uva.Addr(iter*8))
	ctx.Store(p.acc, ctx.Load(p.acc)*31+v)
}

// checksum digests the committed output array and the accumulator.
func (p *committerProg) checksum(img *mem.Image) [2]uint64 {
	return [2]uint64{img.ChecksumRange(p.out, int(p.n)*8), img.ChecksumRange(p.acc, 8)}
}

// TestCommitterHook pins the per-MTX Commit hook: on vtime and live on host,
// with misspeculations, it runs exactly once per committed MTX and in MTX
// order — the MTXs recovery re-executes sequentially included — and the
// committed memory matches RunSequential's.
func TestCommitterHook(t *testing.T) {
	const n = 24
	misspecs := misspecsOf(0, 7, 8, 15)
	onBackends(t, func(t *testing.T, config func(int, pipeline.Plan) Config) {
		cfg := config(6, pipeline.SpecDSWP("S", "DOALL", "S"))
		prog := &committerProg{pipeProg: pipeProg{n: n, misspecs: misspecs}}
		sys, res := runProg(t, cfg, prog)
		if res.Misspecs != uint64(len(misspecs)) || res.Committed != n {
			t.Fatalf("res = %+v, want %d misspecs and %d committed", res, len(misspecs), n)
		}
		want := make([]uint64, n)
		for k := range want {
			want[k] = uint64(k)
		}
		if !slices.Equal(prog.commits, want) {
			t.Fatalf("Commit saw %v, want each of 0..%d once, in order", prog.commits, n-1)
		}
		ref := &committerProg{pipeProg: pipeProg{n: n}}
		_, img, err := RunSequential(cfg, ref, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := prog.checksum(sys.CommitImage()), ref.checksum(img); got != want {
			t.Fatalf("checksum %#x, sequential %#x", got, want)
		}
	})
}
