package core

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// straddlePages is the length of straddleProg's bulk read: two pages either
// side of a 64-page ownership-block boundary.
const straddlePages = 4

// straddleProg bulk-reads a run of pages that crosses an ownership-block
// boundary in every iteration, so each worker's first fault asks its page
// server for the whole run at once.
type straddleProg struct {
	n    uint64
	data uva.Addr // page-aligned, two pages short of a block boundary
	out  uva.Addr
}

func (p *straddleProg) Setup(ctx *SeqCtx) {
	base := ctx.Alloc((2*pageShardBlock + 1) * uva.PageSize)
	pg := base.Page() + 1
	for uint64(pg)%pageShardBlock != pageShardBlock-straddlePages/2 {
		pg++
	}
	p.data = uva.PageAddr(pg)
	p.out = ctx.AllocWords(int(p.n))
	buf := make([]byte, straddlePages*uva.PageSize)
	for i := range buf {
		buf[i] = byte(i/uva.PageSize + 1)
	}
	ctx.Image().StoreBytes(p.data, buf)
}

func (p *straddleProg) sum(b []byte) uint64 {
	var s uint64
	for _, c := range b {
		s += uint64(c)
	}
	return s
}

func (p *straddleProg) Stage(ctx *Ctx, _ int, iter uint64) bool {
	if iter >= p.n {
		return false
	}
	ctx.Write(p.out+uva.Addr(iter*8), iter+p.sum(ctx.ReadBytes(p.data, straddlePages*uva.PageSize)))
	return true
}

func (p *straddleProg) SeqIter(ctx *SeqCtx, iter uint64) {
	ctx.Store(p.out+uva.Addr(iter*8), iter+p.sum(ctx.LoadBytes(p.data, straddlePages*uva.PageSize)))
}

// TestPageServicePlacement pins the one placement rule: page → ownerOf(page)
// → that commit unit's page server. On the host backend, for one and two
// commit units, there is exactly one page server (track and metric family)
// per commit unit, every request was served by its page's owner, and a
// prefetch run is bounded by ownership alone — so with a single commit unit
// a bulk read across a 64-page block boundary is one round trip.
func TestPageServicePlacement(t *testing.T) {
	shardMetric := regexp.MustCompile(`"pagesrv\.shard(\d+)\.`)
	for _, shards := range []int{1, 2} {
		prog := &straddleProg{n: 24}
		cfg := smallConfig(4+shards, pipeline.SpecDOALL())
		cfg.Backend = BackendHost
		cfg.CommitShards = shards
		cfg.Tracer = trace.New()
		sys, res := runProg(t, cfg, prog)
		if res.Committed != prog.n || res.Misspecs != 0 {
			t.Fatalf("shards=%d: committed %d misspecs %d, want %d/0", shards, res.Committed, res.Misspecs, prog.n)
		}
		want := uint64(0)
		for i := 1; i <= straddlePages; i++ {
			want += uint64(i) * uva.PageSize
		}
		for k := uint64(0); k < prog.n; k++ {
			if got := sys.CommitImage().Load(prog.out + uva.Addr(k*8)); got != k+want {
				t.Fatalf("shards=%d: out[%d] = %d, want %d", shards, k, got, k+want)
			}
		}

		// One pagesrv track and one pagesrv.shard<k>.* metric family per
		// commit unit, as the trace and metrics exports show them.
		var buf bytes.Buffer
		if err := cfg.Tracer.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if tracks := strings.Count(buf.String(), `"name":"thread_name","args":{"name":"pagesrv`); tracks != shards {
			t.Errorf("shards=%d: %d pagesrv tracks", shards, tracks)
		}
		buf.Reset()
		if err := cfg.Tracer.Metrics().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		families := map[string]bool{}
		for _, m := range shardMetric.FindAllStringSubmatch(buf.String(), -1) {
			families[m[1]] = true
		}
		if len(families) != shards {
			t.Errorf("shards=%d: pagesrv.shard metric families %v", shards, families)
		}

		// Every request was served by the owner of its pages.
		var served, serveSpans uint64
		for _, ps := range sys.srvs {
			served += ps.Requests
		}
		if dropped := cfg.Tracer.DroppedSpans(); dropped != 0 {
			t.Fatalf("shards=%d: %d spans dropped", shards, dropped)
		}
		straddleRuns := 0
		for _, ev := range cfg.Tracer.Events() {
			start := uva.PageID(ev.MTX)
			switch ev.Kind {
			case trace.SpanPageServe:
				serveSpans++
				for i := int64(0); i < ev.V1; i++ {
					if pg := start + uva.PageID(i); sys.pageSrvTrack(sys.ownerOf(pg)) != int(ev.Track) {
						t.Errorf("shards=%d: page %#x (owner %d) served on track %d", shards, pg, sys.ownerOf(pg), ev.Track)
					}
				}
			case trace.SpanCOA:
				if start != prog.data.Page() {
					continue
				}
				// The straddling read is one run unless ownership changes at
				// the block boundary.
				run := int64(straddlePages)
				if sys.ownerOf(start) != sys.ownerOf(start+straddlePages-1) {
					run = straddlePages / 2
				}
				if ev.V1 != run {
					t.Errorf("shards=%d: straddling fault fetched %d pages, want %d", shards, ev.V1, run)
				}
				straddleRuns++
			}
		}
		if req := cfg.Tracer.Metrics().Counter("coa.requests").Value(); served == 0 || served != req || served != serveSpans {
			t.Errorf("shards=%d: servers counted %d requests, coa.requests %d, serve spans %d", shards, served, req, serveSpans)
		}
		if straddleRuns == 0 {
			t.Errorf("shards=%d: no worker faulted on the straddling page", shards)
		}
	}
}

// lendProg reads one word of a page every iteration and, the first time a
// worker runs, stores privately (Ctx.Store, never forwarded) to another word
// of the same page, recording the frame it was served and the frame it holds
// after the store.
type lendProg struct {
	n      uint64
	page   uva.Addr // word 0 is read, word 1 is the worker's private store
	out    uva.Addr
	served [16]*mem.Page // per pool index: the frame the worker was served
	stored [16]*mem.Page // per pool index: its frame after the store
}

func (p *lendProg) Setup(ctx *SeqCtx) {
	p.page = uva.PageAddr(ctx.Alloc(2*uva.PageSize).Page() + 1)
	p.out = ctx.AllocWords(int(p.n))
	ctx.Store(p.page, 41)
	ctx.Store(p.page+8, 7)
}

func (p *lendProg) Stage(ctx *Ctx, _ int, iter uint64) bool {
	if iter >= p.n {
		return false
	}
	v := ctx.Read(p.page)
	if i := ctx.PoolIndex(); p.served[i] == nil {
		p.served[i] = frameOf(ctx.w.img, p.page.Page())
		ctx.Store(p.page+8, 99)
		p.stored[i] = frameOf(ctx.w.img, p.page.Page())
	}
	ctx.Write(p.out+uva.Addr(iter*8), v+iter)
	return true
}

func (p *lendProg) SeqIter(ctx *SeqCtx, iter uint64) {
	ctx.Store(p.out+uva.Addr(iter*8), ctx.Load(p.page)+iter)
}

// frameOf returns the frame img holds for page id, or nil.
func frameOf(img *mem.Image, id uva.PageID) (frame *mem.Page) {
	img.ForEachResident(func(at uva.PageID, pg *mem.Page) {
		if at == id {
			frame = pg
		}
	})
	return frame
}

// TestServedFrameIsLent: a Copy-On-Access reply lends the snapshot's own
// frame — each worker's frame is pointer-equal to the served snapshot's —
// and a worker's store into the page copies it, so the snapshot, the frame
// and the commit image still read the old word. The frames are recorded on
// the worker goroutines and compared after Run joins them.
func TestServedFrameIsLent(t *testing.T) {
	for _, backend := range []Backend{BackendVTime, BackendHost} {
		cfg := smallConfig(5, pipeline.SpecDOALL())
		cfg.Backend = backend
		const n = 40
		prog := &lendProg{n: n}
		sys, res := runProg(t, cfg, prog)
		if res.Committed != n || res.Misspecs != 0 {
			t.Fatalf("%s: committed %d misspecs %d, want %d and 0", backend, res.Committed, res.Misspecs, n)
		}
		snap := sys.srvs[0].snap.Load()
		want := frameOf(snap, prog.page.Page())
		workers := 0
		for i, served := range prog.served {
			if served == nil {
				continue
			}
			workers++
			if served != want {
				t.Errorf("%s: worker %d was served a copy, not the snapshot's frame", backend, i)
			}
			if prog.stored[i] == served {
				t.Errorf("%s: worker %d's store wrote the lent frame in place", backend, i)
			}
		}
		if workers == 0 {
			t.Fatalf("%s: no worker recorded a served frame", backend)
		}
		if want.Words[1] != 7 || snap.Load(prog.page+8) != 7 || sys.CommitImage().Load(prog.page+8) != 7 {
			t.Errorf("%s: a worker's private store reached the snapshot or the commit image", backend)
		}
		for iter := uint64(0); iter < n; iter++ {
			if got := sys.CommitImage().Load(prog.out + uva.Addr(iter*8)); got != 41+iter {
				t.Fatalf("%s: out[%d] = %d, want %d", backend, iter, got, 41+iter)
			}
		}
	}
}
