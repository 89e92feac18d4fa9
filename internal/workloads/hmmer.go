package workloads

import (
	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// 456.hmmer — gene sequence database search. Each iteration Viterbi-scores
// a batch of database sequences against a profile HMM (the parallel first
// stage); the second, sequential stage computes the score histogram and the
// max-reduction. Memory versioning gives every worker its own copy of the
// profile and DP matrices.
//
// DSMTX: Spec-DSWP+[DOALL,S]. TLS: the histogram/max updates are a
// synchronized dependence, whose cyclic forwarding limits scaling as core
// counts grow — the paper's explanation for TLS falling behind.

const (
	hmmBatches      = 400
	hmmSeqsPerBatch = 48
	hmmSeqLen       = 48
	hmmStates       = 32
	hmmAlphabet     = 20
	hmmInstrPerCell = 10
	hmmBins         = 25
)

type hmmProg struct {
	tls     bool
	batches uint64
	seed    uint64

	profile uva.Addr // emission scores: state*alphabet int words
	trans   uva.Addr // transition scores: 3 per state
	seqs    uva.Addr // database: one byte per residue
	out     uva.Addr // per-batch max score
	hist    uva.Addr // hmmBins histogram words
	globMax uva.Addr // global max score (reduction)
}

func newHmmProg(in Input, tls bool) *hmmProg {
	return &hmmProg{tls: tls, batches: uint64(hmmBatches * in.scale()), seed: in.Seed}
}

// Hmmer returns the Table 2 entry.
func Hmmer() *Benchmark {
	return &Benchmark{
		Name:        "456.hmmer",
		Suite:       "SPEC CINT 2006",
		Description: "gene sequence database search",
		SpecTypes:   "MV",
		Invocations: 1,
		NewDSMTX:    func(in Input, _ int) Program { return newHmmProg(in, false) },
		NewTLS:      func(in Input, _ int) Program { return newHmmProg(in, true) },
	}
}

func (p *hmmProg) Plan() pipeline.Plan {
	if p.tls {
		return pipeline.TLS()
	}
	return pipeline.SpecDSWP("DOALL", "S")
}

func (p *hmmProg) Iterations() uint64 { return p.batches }

func (p *hmmProg) batchAddr(b uint64) uva.Addr {
	return p.seqs + uva.Addr(b*hmmSeqsPerBatch*hmmSeqLen)
}

func (p *hmmProg) Setup(ctx *core.SeqCtx) {
	p.profile = ctx.AllocWords(hmmStates * hmmAlphabet)
	p.trans = ctx.AllocWords(hmmStates * 3)
	dbBytes := int64(p.batches) * hmmSeqsPerBatch * hmmSeqLen
	p.seqs = ctx.Alloc(dbBytes)
	p.out = ctx.AllocWords(int(p.batches))
	p.hist = ctx.AllocWords(hmmBins)
	p.globMax = ctx.AllocWords(1)
	if ctx.Shadow() {
		return
	}
	img := ctx.Image()
	r := newRNG(p.seed)
	for i := 0; i < hmmStates*hmmAlphabet; i++ {
		img.Store(p.profile+uva.Addr(i*8), uint64(r.intn(17))) // emission score 0..16
	}
	for i := 0; i < hmmStates*3; i++ {
		img.Store(p.trans+uva.Addr(i*8), uint64(r.intn(5))) // transition penalty 0..4
	}
	db := make([]byte, dbBytes)
	for i := range db {
		db[i] = byte(r.intn(hmmAlphabet))
	}
	img.StoreBytes(p.seqs, db)
	ctx.Store(p.globMax, 0)
}

// viterbi scores one sequence against the profile: a real
// match/insert/delete DP with integer scores.
func viterbi(seq []byte, emit, trans []uint64) uint64 {
	prev := make([]int64, hmmStates+1)
	cur := make([]int64, hmmStates+1)
	var best int64
	for i := 0; i < len(seq); i++ {
		c := int(seq[i])
		for s := 1; s <= hmmStates; s++ {
			e := int64(emit[(s-1)*hmmAlphabet+c])
			tMatch := int64(trans[(s-1)*3])
			tIns := int64(trans[(s-1)*3+1])
			tDel := int64(trans[(s-1)*3+2])
			m := prev[s-1] + e - tMatch
			if v := prev[s] + e - tIns - 1; v > m {
				m = v
			}
			if v := cur[s-1] - tDel - 2; v > m {
				m = v
			}
			if m < 0 {
				m = 0
			}
			cur[s] = m
			if m > best {
				best = m
			}
		}
		prev, cur = cur, prev
	}
	return uint64(best)
}

// scoreBatch does the batch's real work from raw bytes; profile tables are
// passed in decoded.
func (p *hmmProg) scoreBatch(batch []byte, emit, trans []uint64) (scores []uint64, maxScore uint64) {
	scores = make([]uint64, hmmSeqsPerBatch)
	for s := 0; s < hmmSeqsPerBatch; s++ {
		sc := viterbi(batch[s*hmmSeqLen:(s+1)*hmmSeqLen], emit, trans)
		scores[s] = sc
		if sc > maxScore {
			maxScore = sc
		}
	}
	return scores, maxScore
}

func unpackWords(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		var v uint64
		for k := 7; k >= 0; k-- {
			v = v<<8 | uint64(b[i*8+k])
		}
		out[i] = v
	}
	return out
}

func (p *hmmProg) tables(load func(uva.Addr, int) []byte) (emit, trans []uint64) {
	emit = unpackWords(load(p.profile, hmmStates*hmmAlphabet*8))
	trans = unpackWords(load(p.trans, hmmStates*3*8))
	return emit, trans
}

func (p *hmmProg) bin(score uint64) uva.Addr {
	b := score / 8
	if b >= hmmBins {
		b = hmmBins - 1
	}
	return p.hist + uva.Addr(b*8)
}

func (p *hmmProg) Stage(ctx *core.Ctx, stage int, iter uint64) bool {
	if p.tls {
		return p.tlsStage(ctx, iter)
	}
	switch stage {
	case 0: // parallel: score the batch
		if iter >= p.batches {
			return false
		}
		emit, trans := p.tables(ctx.LoadBytes)
		batch := ctx.LoadBytes(p.batchAddr(iter), hmmSeqsPerBatch*hmmSeqLen)
		scores, maxScore := p.scoreBatch(batch, emit, trans)
		ctx.Compute(hmmInstrPerCell * hmmSeqsPerBatch * hmmSeqLen * hmmStates)
		for _, sc := range scores {
			ctx.Produce(1, sc)
		}
		ctx.WriteCommit(p.out+uva.Addr(iter*8), maxScore)
	case 1: // sequential: histogram + max reduction
		var maxScore uint64
		for s := 0; s < hmmSeqsPerBatch; s++ {
			sc := ctx.Consume(0)
			ctx.WriteCommit(p.bin(sc), ctx.Load(p.bin(sc))+1)
			if sc > maxScore {
				maxScore = sc
			}
		}
		if maxScore > ctx.Load(p.globMax) {
			ctx.WriteCommit(p.globMax, maxScore)
		}
	}
	return true
}

func (p *hmmProg) tlsStage(ctx *core.Ctx, iter uint64) bool {
	if iter >= p.batches {
		return false
	}
	emit, trans := p.tables(ctx.LoadBytes)
	batch := ctx.LoadBytes(p.batchAddr(iter), hmmSeqsPerBatch*hmmSeqLen)
	scores, maxScore := p.scoreBatch(batch, emit, trans)
	ctx.Compute(hmmInstrPerCell * hmmSeqsPerBatch * hmmSeqLen * hmmStates)
	ctx.WriteCommit(p.out+uva.Addr(iter*8), maxScore)
	// The histogram and global max are synchronized dependences: their
	// whole state is forwarded around the ring, iteration to iteration.
	state := make([]uint64, hmmBins+1)
	if ctx.EpochFirst() {
		for b := 0; b < hmmBins; b++ {
			state[b] = ctx.Load(p.hist + uva.Addr(b*8))
		}
		state[hmmBins] = ctx.Load(p.globMax)
	} else {
		state = ctx.SyncRecvVec(hmmBins + 1)
	}
	ctx.Compute(3000) // serial histogram update section
	for _, sc := range scores {
		b := int(uint64(p.bin(sc)-p.hist) / 8)
		state[b]++
	}
	if maxScore > state[hmmBins] {
		state[hmmBins] = maxScore
	}
	for b := 0; b < hmmBins; b++ {
		ctx.WriteCommit(p.hist+uva.Addr(b*8), state[b])
	}
	ctx.WriteCommit(p.globMax, state[hmmBins])
	ctx.SyncSendVec(state)
	return true
}

func (p *hmmProg) SeqIter(ctx *core.SeqCtx, iter uint64) {
	emit, trans := p.tables(ctx.LoadBytes)
	batch := ctx.LoadBytes(p.batchAddr(iter), hmmSeqsPerBatch*hmmSeqLen)
	scores, maxScore := p.scoreBatch(batch, emit, trans)
	ctx.Compute(hmmInstrPerCell * hmmSeqsPerBatch * hmmSeqLen * hmmStates)
	for _, sc := range scores {
		ctx.Store(p.bin(sc), ctx.Load(p.bin(sc))+1)
	}
	ctx.Store(p.out+uva.Addr(iter*8), maxScore)
	if maxScore > ctx.Load(p.globMax) {
		ctx.Store(p.globMax, maxScore)
	}
}

func (p *hmmProg) Checksum(img *mem.Image) uint64 {
	h := img.Load(p.globMax)
	for b := 0; b < hmmBins; b++ {
		h = mix(h, img.Load(p.hist+uva.Addr(b*8)))
	}
	h = mix(h, img.ChecksumRange(p.out, int(p.batches)*8))
	return h
}
