package workloads

import (
	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// 179.art — image recognition with an Adaptive Resonance Theory network.
// Each iteration scans one window of the input image against the learned F2
// category weights; the vigilance search loop's trip count varies wildly
// with window content, so iteration times are highly unbalanced. The paper
// addresses this by having the first stage distribute work by queue
// occupancy instead of round-robin (Plan.Occupancy); memory versioning
// gives each worker a private copy of the weight arrays.
//
// DSMTX: Spec-DSWP+[S,DOALL,S] with occupancy routing. TLS: round-robin
// with the recognition counts synchronized — the round-trip communication
// makes the TLS curve grow slower, as in the paper.

const (
	artWindows   = 400
	artDims      = 256
	artCats      = 24
	artInstrMAC  = 3
	artVigilance = 0.97
	artMaxPasses = 60
)

type artProg struct {
	tls     bool
	windows uint64
	seed    uint64

	weights uva.Addr // F2 weights: artCats x artDims floats
	inputs  uva.Addr // windows: artDims floats each
	out     uva.Addr // chosen category per window
	counts  uva.Addr // per-category hit counts
}

func newArtProg(in Input, tls bool) *artProg {
	return &artProg{tls: tls, windows: uint64(artWindows * in.scale()), seed: in.Seed}
}

// Art returns the Table 2 entry.
func Art() *Benchmark {
	return &Benchmark{
		Name:        "179.art",
		Suite:       "SPEC CFP 2000",
		Description: "image recognition",
		SpecTypes:   "MV",
		Invocations: 1,
		NewDSMTX:    func(in Input, _ int) Program { return newArtProg(in, false) },
		NewTLS:      func(in Input, _ int) Program { return newArtProg(in, true) },
	}
}

func (p *artProg) Plan() pipeline.Plan {
	if p.tls {
		return pipeline.TLS()
	}
	plan := pipeline.SpecDSWP("S", "DOALL", "S")
	plan.Occupancy = true
	return plan
}

func (p *artProg) Iterations() uint64 { return p.windows }

func (p *artProg) windowAddr(i uint64) uva.Addr { return p.inputs + uva.Addr(i*artDims*8) }

func (p *artProg) Setup(ctx *core.SeqCtx) {
	p.weights = ctx.AllocWords(artCats * artDims)
	p.inputs = ctx.AllocWords(int(p.windows) * artDims)
	p.out = ctx.AllocWords(int(p.windows))
	p.counts = ctx.AllocWords(artCats)
	if ctx.Shadow() {
		return
	}
	img := ctx.Image()
	r := newRNG(p.seed)
	for i := 0; i < artCats*artDims; i++ {
		img.Store(p.weights+uva.Addr(i*8), bitsOf(r.float()))
	}
	for w := uint64(0); w < p.windows; w++ {
		// Most windows resemble a category (fast resonance); a minority are
		// far from every category and churn through the full vigilance
		// search — the unbalanced trip counts the paper describes.
		base := r.intn(artCats)
		noise := 0.02
		if r.intn(10) < 4 {
			noise = 1.0 // hard window: pure noise, never resonates
		}
		for d := 0; d < artDims; d++ {
			wv := floatOf(img.Load(p.weights + uva.Addr((base*artDims+d)*8)))
			img.Store(p.windowAddr(w)+uva.Addr(d*8), bitsOf(wv*(1-noise)+noise*r.float()))
		}
	}
}

// classify runs the F1/F2 resonance search: score every category, then run
// feedback passes that blend the F1 activity toward the best-matching
// prototype until the similarity passes vigilance. Windows close to a
// prototype resonate in one pass; far-off windows churn through many — the
// unbalanced inner-loop trip count the paper describes. macs reports the
// real multiply-accumulate count.
func classify(window []float64, weights []float64) (cat int, macs int64) {
	act := make([]float64, artDims)
	copy(act, window)
	best := 0
	for pass := 0; pass < artMaxPasses; pass++ {
		// F2: score all categories against the current F1 activity.
		bestScore := -1.0
		var actNorm float64
		for _, v := range act {
			actNorm += v * v
		}
		for c := 0; c < artCats; c++ {
			var dot, wnorm float64
			for d := 0; d < artDims; d++ {
				wv := weights[c*artDims+d]
				dot += wv * act[d]
				wnorm += wv * wv
			}
			macs += artDims
			score := 0.0
			if denom := actNorm * wnorm; denom > 0 {
				score = dot * dot / denom
			}
			if score > bestScore {
				best, bestScore = c, score
			}
		}
		if bestScore >= artVigilance {
			return best, macs
		}
		// F1 feedback: blend activity toward the winning prototype.
		for d := 0; d < artDims; d++ {
			act[d] = 0.97*act[d] + 0.03*weights[best*artDims+d]
		}
		macs += artDims
	}
	return best, macs
}

func unpackFloats(b []byte) []float64 {
	w := unpackWords(b)
	out := make([]float64, len(w))
	for i, v := range w {
		out[i] = floatOf(v)
	}
	return out
}

func (p *artProg) weightsOf(load func(uva.Addr, int) []byte) []float64 {
	return unpackFloats(load(p.weights, artCats*artDims*8))
}

func (p *artProg) Stage(ctx *core.Ctx, stage int, iter uint64) bool {
	if p.tls {
		return p.tlsStage(ctx, iter)
	}
	switch stage {
	case 0: // sequential: read the window, dispatch by occupancy
		if iter >= p.windows {
			return false
		}
		window := ctx.LoadBytes(p.windowAddr(iter), artDims*8)
		ctx.ProduceData(1, window, artDims*8)
	case 1: // parallel: classify
		window := unpackFloats(ctx.ConsumeData(0).([]byte))
		weights := p.weightsOf(ctx.LoadBytes)
		cat, macs := classify(window, weights)
		ctx.Compute(macs * artInstrMAC)
		ctx.Produce(2, uint64(cat))
	case 2: // sequential: record
		cat := ctx.Consume(1)
		ctx.WriteCommit(p.out+uva.Addr(iter*8), cat)
		slot := p.counts + uva.Addr(cat*8)
		ctx.WriteCommit(slot, ctx.Load(slot)+1)
	}
	return true
}

func (p *artProg) tlsStage(ctx *core.Ctx, iter uint64) bool {
	if iter >= p.windows {
		return false
	}
	window := unpackFloats(ctx.LoadBytes(p.windowAddr(iter), artDims*8))
	weights := p.weightsOf(ctx.LoadBytes)
	cat, macs := classify(window, weights)
	ctx.Compute(macs * artInstrMAC)
	ctx.WriteCommit(p.out+uva.Addr(iter*8), uint64(cat))
	// The per-category counts are synchronized around the ring.
	counts := make([]uint64, artCats)
	if ctx.EpochFirst() {
		for c := 0; c < artCats; c++ {
			counts[c] = ctx.Load(p.counts + uva.Addr(c*8))
		}
	} else {
		counts = ctx.SyncRecvVec(artCats)
	}
	counts[cat]++
	ctx.WriteCommit(p.counts+uva.Addr(cat*8), counts[cat])
	ctx.SyncSendVec(counts)
	return true
}

func (p *artProg) SeqIter(ctx *core.SeqCtx, iter uint64) {
	window := unpackFloats(ctx.LoadBytes(p.windowAddr(iter), artDims*8))
	weights := unpackFloats(ctx.LoadBytes(p.weights, artCats*artDims*8))
	cat, macs := classify(window, weights)
	ctx.Compute(macs * artInstrMAC)
	ctx.Store(p.out+uva.Addr(iter*8), uint64(cat))
	slot := p.counts + uva.Addr(uint64(cat)*8)
	ctx.Store(slot, ctx.Load(slot)+1)
}

func (p *artProg) Checksum(img *mem.Image) uint64 {
	h := img.ChecksumRange(p.out, int(p.windows)*8)
	h = mix(h, img.ChecksumRange(p.counts, artCats*8))
	return h
}
