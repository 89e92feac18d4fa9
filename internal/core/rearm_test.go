package core

import (
	"testing"

	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// Selective re-arm (cuNode.republish): after a recovery a worker or
// try-commit unit keeps every page that neither it nor the commit unit
// wrote, and drops the rest.

const (
	rearmWS    = 24 // working-set pages every iteration reads
	rearmSlots = 8  // one private slot page per first-stage pool index
)

// rearmProg is a Spec-DOALL loop built so that each way of re-arming too
// little changes its output, and re-arming everything costs a refetch of its
// whole working set per recovery. Every slot lives on its own page, two
// pages apart, so no Copy-On-Access read-ahead merges two of them.
//
//   - w is a word only the commit unit writes: a rare iteration's sequential
//     re-execution moves it, and every later iteration Reads it. A rank that
//     keeps w's page across that recovery validates and commits the old value.
//   - slot i is worker i's own word, zero in every committed state: a rare
//     iteration Writes it and misspeculates, so the store is squashed, and the
//     commit unit never writes the page. The worker's next iteration after
//     the recovery Reads it; a rank that keeps that dirty page commits 0xdead.
type rearmProg struct {
	n    uint64
	rare map[uint64]bool
	page uva.PageID // the first page; page p is page + 2p
	out  uva.Addr
}

func (p *rearmProg) at(i int) uva.Addr   { return uva.PageAddr(p.page + uva.PageID(2*i)) }
func (p *rearmProg) w() uva.Addr         { return p.at(0) }
func (p *rearmProg) slot(i int) uva.Addr { return p.at(1 + i) }
func (p *rearmProg) ws(q int) uva.Addr   { return p.at(1 + rearmSlots + q) }

func (p *rearmProg) Setup(ctx *SeqCtx) {
	pages := 2 * (1 + rearmSlots + rearmWS)
	p.page = ctx.Alloc(int64(pages+1)*uva.PageSize).Page() + 1
	p.out = ctx.AllocWords(int(p.n))
	ctx.Store(p.w(), 1)
	for q := range rearmWS {
		ctx.Store(p.ws(q), uint64(7*q+3))
	}
}

func (p *rearmProg) Stage(ctx *Ctx, _ int, iter uint64) bool {
	if iter >= p.n {
		return false
	}
	slot := p.slot(ctx.PoolIndex())
	v := iter + ctx.Read(p.w()) + ctx.Read(slot)
	for q := range rearmWS {
		v += ctx.Read(p.ws(q))
	}
	if p.rare[iter] {
		ctx.Write(slot, 0xdead)
		ctx.Misspec()
	}
	ctx.Write(p.out+uva.Addr(iter*8), v)
	return true
}

func (p *rearmProg) SeqIter(ctx *SeqCtx, iter uint64) {
	w := ctx.Load(p.w())
	v := iter + w
	for q := range rearmWS {
		v += ctx.Load(p.ws(q))
	}
	if p.rare[iter] {
		ctx.Store(p.w(), w+iter) // the rare path: every later iteration sees it
	}
	ctx.Store(p.out+uva.Addr(iter*8), v)
}

// digest is the committed result: every output word, and w.
func (p *rearmProg) digest(img *mem.Image) uint64 {
	return img.ChecksumRange(p.out, int(p.n)*8) ^ img.Load(p.w())
}

// TestSelectiveRearm runs rearmProg on vtime and live on host. Each must
// commit the sequential result with one misspeculation per rare iteration — a
// stale word either commits or fails validation — and its reference is a full
// reset counted on the same run: at each recovery a rank's Rearm drops some
// pages (mem.pages.rearmed) and keeps the rest (mem.pages.kept), and Reset
// would have dropped both. rearmProg reads every page it holds each
// iteration, so each page dropped is one refetch; re-arm must drop at most a
// third of what a full reset would, the refetch selective re-arm exists to
// save.
func TestSelectiveRearm(t *testing.T) {
	const n = 128
	rare := make(map[uint64]bool)
	for k := uint64(9); k+3 < n; k += 10 {
		rare[k] = true
	}
	cfg := smallConfig(5, pipeline.SpecDOALL())
	ref := &rearmProg{n: n, rare: rare}
	_, seqImg, err := RunSequential(cfg, ref, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.digest(seqImg)

	for _, backend := range []Backend{BackendVTime, BackendHost} {
		c := cfg
		c.Backend = backend
		// Counts come through a metrics-only tracer; tracing never changes a
		// vtime outcome.
		tr := trace.NewMetricsOnly()
		c.Tracer = tr
		prog := &rearmProg{n: n, rare: rare}
		sys, res := runProg(t, c, prog)
		if got := prog.digest(sys.CommitImage()); got != want {
			t.Errorf("%v: digest %#x, want the sequential %#x", backend, got, want)
		}
		if res.Committed != n || res.Misspecs != uint64(len(rare)) {
			t.Errorf("%v: committed %d misspecs %d, want %d and %d", backend, res.Committed, res.Misspecs, n, len(rare))
		}
		count := func(name string) uint64 { return tr.Metrics().Counter(name).Value() }
		dropped, kept := count("mem.pages.rearmed"), count("mem.pages.kept")
		t.Logf("%v: re-arm dropped %d pages, a full reset %d; %d Copy-On-Access requests",
			backend, dropped, dropped+kept, count("coa.requests"))
		if kept == 0 || 3*dropped > dropped+kept {
			t.Errorf("%v: re-arm dropped %d of %d resident pages, want <= a third", backend, dropped, dropped+kept)
		}
	}
}
