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

// runPages is the length of runReadProg's bulk read.
const runPages = 4

// runReadProg bulk-reads a run of pages in every iteration, so each
// worker's first fault asks the page server for the whole run at once.
type runReadProg struct {
	n    uint64
	data uva.Addr // page-aligned
	out  uva.Addr
}

func (p *runReadProg) Setup(ctx *SeqCtx) {
	p.data = uva.PageAddr(ctx.Alloc((runPages+1)*uva.PageSize).Page() + 1)
	p.out = ctx.AllocWords(int(p.n))
	buf := make([]byte, runPages*uva.PageSize)
	for i := range buf {
		buf[i] = byte(i/uva.PageSize + 1)
	}
	ctx.Image().StoreBytes(p.data, buf)
}

func (p *runReadProg) sum(b []byte) uint64 {
	var s uint64
	for _, c := range b {
		s += uint64(c)
	}
	return s
}

func (p *runReadProg) Stage(ctx *Ctx, _ int, iter uint64) bool {
	if iter >= p.n {
		return false
	}
	ctx.Write(p.out+uva.Addr(iter*8), iter+p.sum(ctx.ReadBytes(p.data, runPages*uva.PageSize)))
	return true
}

func (p *runReadProg) SeqIter(ctx *SeqCtx, iter uint64) {
	ctx.Store(p.out+uva.Addr(iter*8), iter+p.sum(ctx.LoadBytes(p.data, runPages*uva.PageSize)))
}

// TestPageServicePlacement pins where Copy-On-Access is served: on the host
// backend there is exactly one page server (one track, one
// pagesrv.shard0.* metric family), it served every request, and a bulk
// read's first fault fetches its whole run in one round trip.
func TestPageServicePlacement(t *testing.T) {
	shardMetric := regexp.MustCompile(`"pagesrv\.shard(\d+)\.`)
	prog := &runReadProg{n: 24}
	cfg := smallConfig(5, pipeline.SpecDOALL())
	cfg.Backend = BackendHost
	cfg.Tracer = trace.New()
	sys, res := runProg(t, cfg, prog)
	if res.Committed != prog.n || res.Misspecs != 0 {
		t.Fatalf("committed %d misspecs %d, want %d/0", res.Committed, res.Misspecs, prog.n)
	}
	want := uint64(0)
	for i := 1; i <= runPages; i++ {
		want += uint64(i) * uva.PageSize
	}
	for k := uint64(0); k < prog.n; k++ {
		if got := sys.CommitImage().Load(prog.out + uva.Addr(k*8)); got != k+want {
			t.Fatalf("out[%d] = %d, want %d", k, got, k+want)
		}
	}

	// One pagesrv track and one pagesrv.shard0.* metric family, as the
	// trace and metrics exports show them.
	var buf bytes.Buffer
	if err := cfg.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if tracks := strings.Count(buf.String(), `"name":"thread_name","args":{"name":"pagesrv`); tracks != 1 {
		t.Errorf("%d pagesrv tracks, want 1", tracks)
	}
	buf.Reset()
	if err := cfg.Tracer.Metrics().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	for _, m := range shardMetric.FindAllStringSubmatch(buf.String(), -1) {
		families[m[1]] = true
	}
	if len(families) != 1 || !families["0"] {
		t.Errorf("pagesrv.shard metric families %v, want only 0", families)
	}

	// The one server served every request, on its own track.
	serveSpans := uint64(0)
	if dropped := cfg.Tracer.DroppedSpans(); dropped != 0 {
		t.Fatalf("%d spans dropped", dropped)
	}
	runFaults := 0
	for _, ev := range cfg.Tracer.Events() {
		switch ev.Kind {
		case trace.SpanPageServe:
			serveSpans++
			if int(ev.Track) != sys.pageSrvTrack() {
				t.Errorf("page %#x served on track %d, want %d", ev.MTX, ev.Track, sys.pageSrvTrack())
			}
		case trace.SpanCOA:
			if uva.PageID(ev.MTX) != prog.data.Page() {
				continue
			}
			if ev.V1 != runPages {
				t.Errorf("bulk read's fault fetched %d pages, want %d", ev.V1, runPages)
			}
			runFaults++
		}
	}
	if req := cfg.Tracer.Metrics().Counter("coa.requests").Value(); req == 0 || req != serveSpans {
		t.Errorf("coa.requests %d, serve spans %d", req, serveSpans)
	}
	if runFaults == 0 {
		t.Error("no worker faulted on the bulk-read run")
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
		snap := sys.srv.snap.Load()
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
