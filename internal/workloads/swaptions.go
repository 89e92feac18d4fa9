package workloads

import (
	"math"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// swaptions — PARSEC portfolio pricing. The outermost loop prices one
// swaption per iteration with an HJM-framework Monte-Carlo simulation;
// speculation is control-flow speculation on an error condition during
// price calculation (a simulated path blowing up). The paper notes the TLS
// and DSMTX parallelizations coincide (both Spec-DOALL with no
// communication except on misspeculation), and that scalability is limited
// by the input size — the number of swaptions.

const (
	swnSwaptions  = 128
	swnTrials     = 1024 // Monte-Carlo paths per swaption
	swnSteps      = 40   // time steps per path
	swnInstrPerOp = 14   // exp/accumulate per step
	swnParamWords = 4    // strike, years, tenor index, seed
)

type swnProg struct {
	n    uint64
	seed uint64
	bad  map[uint64]bool

	params uva.Addr
	out    uva.Addr // price per swaption (float64 bits)
}

func newSwnProg(in Input) *swnProg {
	n := uint64(swnSwaptions * in.scale())
	return &swnProg{n: n, seed: in.Seed, bad: misspecSet(n, in.MisspecRate, in.Seed+2)}
}

// Swaptions returns the Table 2 entry.
func Swaptions() *Benchmark {
	return &Benchmark{
		Name:        "swaptions",
		Suite:       "PARSEC",
		Description: "portfolio pricing",
		SpecTypes:   "CFS",
		Invocations: 1,
		// Both parallelizations are Spec-DOALL, as in the paper.
		NewDSMTX: func(in Input, _ int) Program { return newSwnProg(in) },
		NewTLS:   func(in Input, _ int) Program { return newSwnProg(in) },
	}
}

func (p *swnProg) Plan() pipeline.Plan { return pipeline.SpecDOALL() }

func (p *swnProg) Iterations() uint64 { return p.n }

func (p *swnProg) paramAddr(i uint64) uva.Addr {
	return p.params + uva.Addr(i*swnParamWords*8)
}

func (p *swnProg) Setup(ctx *core.SeqCtx) {
	p.params = ctx.AllocWords(int(p.n) * swnParamWords)
	p.out = ctx.AllocWords(int(p.n))
	if ctx.Shadow() {
		return
	}
	img := ctx.Image()
	r := newRNG(p.seed)
	for i := uint64(0); i < p.n; i++ {
		a := p.paramAddr(i)
		strike := 0.02 + 0.06*r.float()
		years := 1 + 9*r.float()
		if p.bad[i] {
			years = -1 // invalid maturity: the speculated error path
		}
		img.Store(a, bitsOf(strike))
		img.Store(a+8, bitsOf(years))
		img.Store(a+16, uint64(r.intn(8)))
		img.Store(a+24, r.next())
	}
}

// price runs the HJM-lite Monte-Carlo: simulate forward-rate paths, value
// the swaption payoff on each, and average. bad = invalid parameters.
func (p *swnProg) price(strike, years float64, tenor int, seed uint64) (float64, bool) {
	if years <= 0 || strike <= 0 {
		return 0, true
	}
	r := newRNG(seed)
	dt := years / swnSteps
	var sum float64
	for trial := 0; trial < swnTrials; trial++ {
		rate := 0.04
		for s := 0; s < swnSteps; s++ {
			// Log-normal short-rate step with antithetic-ish noise.
			z := 2*r.float() - 1
			rate *= math.Exp((0.01-rate*0.1)*dt + 0.15*z*math.Sqrt(dt))
		}
		payoff := rate - strike - 0.002*float64(tenor)
		if payoff > 0 {
			sum += payoff * math.Exp(-rate*years)
		}
	}
	return sum / swnTrials, false
}

func (p *swnProg) runIter(load func(uva.Addr) uint64, iter uint64) (float64, bool) {
	a := p.paramAddr(iter)
	strike := floatOf(load(a))
	years := floatOf(load(a + 8))
	tenor := int(load(a + 16))
	seed := load(a + 24)
	return p.price(strike, years, tenor, seed)
}

func (p *swnProg) Stage(ctx *core.Ctx, _ int, iter uint64) bool {
	if iter >= p.n {
		return false
	}
	v, bad := p.runIter(ctx.Load, iter)
	if bad {
		ctx.Misspec() // speculated: "no error occurs during price calculation"
	}
	ctx.Compute(swnInstrPerOp * swnTrials * swnSteps)
	ctx.WriteFloatCommit(p.out+uva.Addr(iter*8), v)
	return true
}

func (p *swnProg) SeqIter(ctx *core.SeqCtx, iter uint64) {
	v, bad := p.runIter(ctx.Load, iter)
	if bad {
		v = -1 // the rare error path records a sentinel price
		ctx.Compute(200)
	} else {
		ctx.Compute(swnInstrPerOp * swnTrials * swnSteps)
	}
	ctx.StoreFloat(p.out+uva.Addr(iter*8), v)
}

func (p *swnProg) Checksum(img *mem.Image) uint64 {
	return img.ChecksumRange(p.out, int(p.n)*8)
}
