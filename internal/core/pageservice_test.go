package core

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

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
