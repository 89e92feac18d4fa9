package workloads

import (
	"math"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// blackscholes — PARSEC option pricing. Each iteration prices a chunk of
// European options with the closed-form Black–Scholes formula; speculation
// is control-flow speculation on the error condition (an invalid option
// whose parameters fail validation). A sequential stage accumulates the
// error count and stores prices in order.
//
// DSMTX: DSWP+[Spec-DOALL,S]. TLS: the error-count accumulator is a
// synchronized dependence; the paper observes the TLS curve peaking around
// 52 cores as ring latency catches up with per-chunk work.

const (
	bsChunks       = 252
	bsOptsPerChunk = 512  // one chunk's prices fill whole pages exactly
	bsInstrPerOpt  = 3000 // exp/log/sqrt-heavy closed form
	bsOptWords     = 6    // S, K, r, v, T, call/put flag
	bsTLSSyncInstr = 25000
)

type bsProg struct {
	tls    bool
	chunks uint64
	seed   uint64
	bad    map[uint64]bool // chunks containing an invalid option

	opts   uva.Addr // option parameters, bsOptWords words each
	prices uva.Addr // one word (float64 bits) per option
	errs   uva.Addr // running error count (loop-carried)
}

func newBSProg(in Input, tls bool) *bsProg {
	chunks := uint64(bsChunks * in.scale())
	return &bsProg{
		tls:    tls,
		chunks: chunks,
		seed:   in.Seed,
		bad:    misspecSet(chunks, in.MisspecRate, in.Seed+1),
	}
}

// Blackscholes returns the Table 2 entry.
func Blackscholes() *Benchmark {
	return &Benchmark{
		Name:        "blackscholes",
		Suite:       "PARSEC",
		Description: "option pricing",
		SpecTypes:   "CFS",
		Invocations: 1,
		NewDSMTX:    func(in Input, _ int) Program { return newBSProg(in, false) },
		NewTLS:      func(in Input, _ int) Program { return newBSProg(in, true) },
	}
}

func (p *bsProg) Plan() pipeline.Plan {
	if p.tls {
		return pipeline.TLS()
	}
	return pipeline.DSWP("Spec-DOALL", "S")
}

func (p *bsProg) Iterations() uint64 { return p.chunks }

func (p *bsProg) optAddr(chunk uint64, i int) uva.Addr {
	return p.opts + uva.Addr((chunk*bsOptsPerChunk+uint64(i))*bsOptWords*8)
}

func (p *bsProg) Setup(ctx *core.SeqCtx) {
	n := p.chunks * bsOptsPerChunk
	p.opts = ctx.AllocWords(int(n) * bsOptWords)
	p.prices = ctx.AllocWords(int(n))
	p.errs = ctx.AllocWords(1)
	if ctx.Shadow() {
		return
	}
	img := ctx.Image()
	r := newRNG(p.seed)
	for c := uint64(0); c < p.chunks; c++ {
		for i := 0; i < bsOptsPerChunk; i++ {
			a := p.optAddr(c, i)
			spot := 20 + 100*r.float()
			strike := 20 + 100*r.float()
			rate := 0.01 + 0.05*r.float()
			vol := 0.1 + 0.5*r.float()
			tm := 0.25 + 2*r.float()
			if p.bad[c] && i == 0 {
				vol = -1 // invalid volatility: the speculated error path
			}
			call := uint64(r.intn(2))
			for w, v := range []float64{spot, strike, rate, vol, tm} {
				img.Store(a+uva.Addr(w*8), bitsOf(v))
			}
			img.Store(a+5*8, call)
		}
	}
	ctx.Store(p.errs, 0)
}

// cnd is the cumulative normal distribution (Abramowitz–Stegun), as the
// PARSEC kernel uses.
func cnd(x float64) float64 {
	neg := x < 0
	if neg {
		x = -x
	}
	k := 1 / (1 + 0.2316419*x)
	w := 1 - 1/math.Sqrt(2*math.Pi)*math.Exp(-x*x/2)*
		k*(0.319381530+k*(-0.356563782+k*(1.781477937+k*(-1.821255978+k*1.330274429))))
	if neg {
		return 1 - w
	}
	return w
}

func blackScholes(spot, strike, rate, vol, tm float64, call bool) float64 {
	d1 := (math.Log(spot/strike) + (rate+vol*vol/2)*tm) / (vol * math.Sqrt(tm))
	d2 := d1 - vol*math.Sqrt(tm)
	if call {
		return spot*cnd(d1) - strike*math.Exp(-rate*tm)*cnd(d2)
	}
	return strike*math.Exp(-rate*tm)*cnd(-d2) - spot*cnd(-d1)
}

// priceChunk prices a chunk from its packed parameter block; bad = an
// invalid option was found (the error path).
func (p *bsProg) priceChunk(params []byte) (prices []float64, bad bool) {
	prices = make([]float64, bsOptsPerChunk)
	for i := 0; i < bsOptsPerChunk; i++ {
		base := i * bsOptWords * 8
		word := func(w int) uint64 {
			var v uint64
			for k := 7; k >= 0; k-- {
				v = v<<8 | uint64(params[base+w*8+k])
			}
			return v
		}
		spot := floatOf(word(0))
		strike := floatOf(word(1))
		rate := floatOf(word(2))
		vol := floatOf(word(3))
		tm := floatOf(word(4))
		call := word(5) == 1
		if vol <= 0 || tm <= 0 || spot <= 0 {
			return nil, true
		}
		prices[i] = blackScholes(spot, strike, rate, vol, tm, call)
	}
	return prices, false
}

func (p *bsProg) Stage(ctx *core.Ctx, stage int, iter uint64) bool {
	if p.tls {
		return p.tlsStage(ctx, iter)
	}
	switch stage {
	case 0: // parallel: price the chunk
		if iter >= p.chunks {
			return false
		}
		// One bulk read covers the chunk's parameters (page-granular COA).
		params := ctx.LoadBytes(p.optAddr(iter, 0), bsOptsPerChunk*bsOptWords*8)
		prices, bad := p.priceChunk(params)
		if bad {
			ctx.Misspec()
		}
		ctx.Compute(bsInstrPerOpt * bsOptsPerChunk)
		for _, v := range prices[:4] { // spot-check values flow to the next stage
			ctx.Produce(1, bitsOf(v))
		}
		ctx.WriteBytesCommit(p.prices+uva.Addr(iter*bsOptsPerChunk*8), packFloats(prices))
	case 1: // sequential: validation bookkeeping
		var sum float64
		for i := 0; i < 4; i++ {
			sum += floatOf(ctx.Consume(0))
		}
		if sum < 0 {
			ctx.WriteCommit(p.errs, ctx.Load(p.errs)+1)
		}
	}
	return true
}

func (p *bsProg) tlsStage(ctx *core.Ctx, iter uint64) bool {
	if iter >= p.chunks {
		return false
	}
	params := ctx.LoadBytes(p.optAddr(iter, 0), bsOptsPerChunk*bsOptWords*8)
	prices, bad := p.priceChunk(params)
	if bad {
		ctx.Misspec()
	}
	ctx.Compute(bsInstrPerOpt * bsOptsPerChunk)
	ctx.WriteBytesCommit(p.prices+uva.Addr(iter*bsOptsPerChunk*8), packFloats(prices))
	// Error-count bookkeeping is synchronized across iterations.
	var errs uint64
	if ctx.EpochFirst() {
		errs = ctx.Load(p.errs)
	} else {
		errs = ctx.SyncRecv()
	}
	ctx.Compute(bsTLSSyncInstr) // the serial validation section
	ctx.WriteCommit(p.errs, errs)
	ctx.SyncSend(errs)
	return true
}

func (p *bsProg) SeqIter(ctx *core.SeqCtx, iter uint64) {
	params := ctx.LoadBytes(p.optAddr(iter, 0), bsOptsPerChunk*bsOptWords*8)
	prices, bad := p.priceChunk(params)
	if bad {
		// The error path: price the valid options, count the error.
		prices = make([]float64, bsOptsPerChunk)
		ctx.Store(p.errs, ctx.Load(p.errs)+1)
		ctx.Compute(bsInstrPerOpt * bsOptsPerChunk / 2)
	} else {
		ctx.Compute(bsInstrPerOpt * bsOptsPerChunk)
	}
	ctx.StoreBytes(p.prices+uva.Addr(iter*bsOptsPerChunk*8), packFloats(prices))
}

func (p *bsProg) Checksum(img *mem.Image) uint64 {
	return img.ChecksumRange(p.prices, int(p.chunks)*bsOptsPerChunk*8)
}

func packFloats(fs []float64) []byte {
	b := make([]byte, len(fs)*8)
	for i, f := range fs {
		v := bitsOf(f)
		for k := 0; k < 8; k++ {
			b[i*8+k] = byte(v >> (8 * k))
		}
	}
	return b
}

func bitsOf(f float64) uint64  { return math.Float64bits(f) }
func floatOf(b uint64) float64 { return math.Float64frombits(b) }
