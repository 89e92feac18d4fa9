package workloads

import (
	"encoding/binary"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// 197.parser — English sentence parser with a link-grammar-style
// dictionary. Each iteration parses one sentence: every word is looked up
// in the dictionary (which workers copy from the commit unit page by page
// on access — the paper notes "an entire dictionary must be copied from the
// commit unit", making communication bandwidth the bottleneck past 32
// cores), then adjacent words' link requirements are matched with an
// ambiguity-retry loop. Global parser options are speculated to be reset at
// the end of each iteration (MVS: reads are validated); error sentences
// take a speculated-not-taken path (CFS).
//
// DSMTX: Spec-DSWP+[S,DOALL,S]. TLS: the parse statistics are synchronized.

const (
	parSentences   = 800
	parDictEntries = 4096 // x 4 words = 128 KiB of dictionary
	parBucketWords = 32   // one lookup pulls an 8-entry bucket
	parMaxWords    = 22
	parInstrProbe  = 800  // dictionary probe + link scan per word
	parInstrWord   = 1400 // linkage work per word per ambiguity pass
)

type parProg struct {
	tls       bool
	sentences uint64
	seed      uint64
	special   map[uint64]int // 1 = error sentence (CFS), 2 = option writer (MVS)

	dict uva.Addr // entries: key, left-links, right-links, flags
	sent uva.Addr // sentences: parMaxWords+1 words each (len-prefixed)
	out  uva.Addr // parse cost per sentence
	opt  uva.Addr // global parser option word (speculated stable)
	errs uva.Addr // error count
}

func newParProg(in Input, tls bool) *parProg {
	n := uint64(parSentences * in.scale())
	p := &parProg{tls: tls, sentences: n, seed: in.Seed, special: make(map[uint64]int)}
	for i, iter := range misspecList(n, in.MisspecRate, in.Seed+5) {
		p.special[iter] = 1 + i%2
	}
	return p
}

// Parser returns the Table 2 entry.
func Parser() *Benchmark {
	return &Benchmark{
		Name:        "197.parser",
		Suite:       "SPEC CINT 2000",
		Description: "English parser",
		SpecTypes:   "CFS,MVS,MV",
		Invocations: 1,
		NewDSMTX:    func(in Input, _ int) Program { return newParProg(in, false) },
		NewTLS:      func(in Input, _ int) Program { return newParProg(in, true) },
	}
}

func (p *parProg) Plan() pipeline.Plan {
	if p.tls {
		return pipeline.TLS()
	}
	return pipeline.SpecDSWP("S", "DOALL", "S")
}

func (p *parProg) Iterations() uint64 { return p.sentences }

const parSentWords = parMaxWords + 1

func (p *parProg) sentAddr(i uint64) uva.Addr { return p.sent + uva.Addr(i*parSentWords*8) }

func (p *parProg) Setup(ctx *core.SeqCtx) {
	p.dict = ctx.AllocWords(parDictEntries * 4)
	p.sent = ctx.AllocWords(int(p.sentences) * parSentWords)
	p.out = ctx.AllocWords(int(p.sentences))
	p.opt = ctx.AllocWords(1)
	p.errs = ctx.AllocWords(1)
	if ctx.Shadow() {
		return
	}
	img := ctx.Image()
	r := newRNG(p.seed)
	for e := 0; e < parDictEntries; e++ {
		a := p.dict + uva.Addr(e*4*8)
		img.Store(a, uint64(e)*2654435761+1) // word key
		// Common link classes live in the high bits; the rare, strict
		// classes the default dialect (opt=3) checks live in the low two.
		img.Store(a+8, (r.next()|r.next())&0xfc|(r.next()&0x3))  // left link set
		img.Store(a+16, (r.next()|r.next())&0xfc|(r.next()&0x3)) // right link set
		img.Store(a+24, uint64(r.intn(4)))                       // flags
	}
	for s := uint64(0); s < p.sentences; s++ {
		rs := newRNG(mix(p.seed, s*977))
		n := 12 + rs.intn(parMaxWords-12)
		a := p.sentAddr(s)
		img.Store(a, uint64(n))
		for w := 1; w <= n; w++ {
			word := uint64(rs.intn(parDictEntries))
			if p.special[s] == 1 && w == 1 {
				word = 1 << 40 // unknown word: the error path
			}
			img.Store(a+uva.Addr(w*8), word)
		}
	}
	ctx.Store(p.opt, 3) // default dialect options
	ctx.Store(p.errs, 0)
}

type parEntry struct{ left, right, flags uint64 }

// parBucket is one dictionary bucket as loaded: 8 entries of 4 words.
type parBucket [parBucketWords * 8]byte

// bucketAddr is the address of the bucket holding entry idx.
func (p *parProg) bucketAddr(idx uint64) uva.Addr { return p.dict + uva.Addr(idx&^7*4*8) }

// entry decodes entry idx's (left, right, flags) out of its loaded bucket.
func (b *parBucket) entry(idx uint64) parEntry {
	e := b[idx&7*4*8:]
	return parEntry{binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:]), binary.LittleEndian.Uint64(e[24:])}
}

// parRecord is one sentence record as loaded: its length word, then the
// words.
type parRecord [parSentWords * 8]byte

// words decodes the sentence into buf.
func (r *parRecord) words(buf *[parMaxWords]uint64) []uint64 {
	n := binary.LittleEndian.Uint64(r[:])
	for i := range n {
		buf[i] = binary.LittleEndian.Uint64(r[(i+1)*8:])
	}
	return buf[:n]
}

// parse does the real linkage work: look up every word, then repeatedly try
// to match adjacent link requirements under the dialect options, relaxing
// one constraint per ambiguity pass. It reports a cost measure, the pass
// count, and whether the sentence hit the error path. lookup is the
// caller's dictionary probe: a closure that loads the bucket into a buffer
// of its own through its context's LoadBytesInto (a direct call, so on a
// worker the buffer never leaves the stack) and decodes the entry.
func (p *parProg) parse(lookup func(idx uint64) parEntry, sentence []uint64, opt uint64) (cost uint64, passes int, errPath bool) {
	var buf [parMaxWords]parEntry
	entries := buf[:len(sentence)]
	for i, w := range sentence {
		if w >= parDictEntries {
			return 0, 0, true // unknown word: error path
		}
		entries[i] = lookup(w)
	}
	relax := uint64(0)
	for passes = 1; ; passes++ {
		ok := true
		cost = 0
		for i := 0; i+1 < len(entries); i++ {
			match := entries[i].right & entries[i+1].left & (opt | relax)
			if match == 0 {
				ok = false
			}
			cost += uint64(popcount(match)) + entries[i].flags
		}
		// The final pass accepts the best-effort linkage (the real parser
		// emits its least-cost parse rather than failing).
		if ok || passes == 8 {
			return cost, passes, false
		}
		relax = relax<<1 | 1 // admit one more link class per pass
	}
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

func (p *parProg) Stage(ctx *core.Ctx, stage int, iter uint64) bool {
	if p.tls {
		return p.tlsStage(ctx, iter)
	}
	switch stage {
	case 0: // sequential: read the sentence
		if iter >= p.sentences {
			return false
		}
		var rec parRecord
		var words [parMaxWords]uint64
		ctx.LoadBytesInto(rec[:], p.sentAddr(iter))
		for _, w := range rec.words(&words) {
			ctx.Produce(1, w)
		}
		ctx.Produce(1, ^uint64(0)) // terminator
	case 1: // parallel: parse against the (versioned) dictionary
		var words [parMaxWords]uint64
		sentence := words[:0]
		for {
			w := ctx.Consume(0)
			if w == ^uint64(0) {
				break
			}
			sentence = append(sentence, w)
		}
		opt := ctx.Read(p.opt) // speculated-stable global options
		var bucket parBucket
		cost, passes, errPath := p.parse(func(idx uint64) parEntry {
			ctx.LoadBytesInto(bucket[:], p.bucketAddr(idx))
			return bucket.entry(idx)
		}, sentence, opt)
		if errPath {
			ctx.Misspec()
		}
		if p.special[iter] == 2 {
			ctx.Write(p.opt, opt|8) // rare dialect switch invalidates readers
		}
		ctx.Compute(int64(len(sentence))*parInstrProbe + int64(passes)*int64(len(sentence))*parInstrWord)
		ctx.Produce(2, cost)
	case 2: // sequential: record results
		cost := ctx.Consume(1)
		ctx.WriteCommit(p.out+uva.Addr(iter*8), cost)
	}
	return true
}

func (p *parProg) tlsStage(ctx *core.Ctx, iter uint64) bool {
	if iter >= p.sentences {
		return false
	}
	var rec parRecord
	var words [parMaxWords]uint64
	var bucket parBucket
	ctx.LoadBytesInto(rec[:], p.sentAddr(iter))
	sentence := rec.words(&words)
	opt := ctx.Read(p.opt)
	cost, passes, errPath := p.parse(func(idx uint64) parEntry {
		ctx.LoadBytesInto(bucket[:], p.bucketAddr(idx))
		return bucket.entry(idx)
	}, sentence, opt)
	if errPath {
		ctx.Misspec()
	}
	if p.special[iter] == 2 {
		ctx.Write(p.opt, opt|8)
	}
	ctx.Compute(int64(len(sentence))*parInstrProbe + int64(passes)*int64(len(sentence))*parInstrWord)
	ctx.WriteCommit(p.out+uva.Addr(iter*8), cost)
	// Parse statistics are synchronized around the ring.
	var errs uint64
	if ctx.EpochFirst() {
		errs = ctx.Load(p.errs)
	} else {
		errs = ctx.SyncRecv()
	}
	ctx.Compute(1500)
	ctx.WriteCommit(p.errs, errs)
	ctx.SyncSend(errs)
	return true
}

func (p *parProg) SeqIter(ctx *core.SeqCtx, iter uint64) {
	var rec parRecord
	var words [parMaxWords]uint64
	var bucket parBucket
	ctx.LoadBytesInto(rec[:], p.sentAddr(iter))
	sentence := rec.words(&words)
	opt := ctx.Load(p.opt)
	cost, passes, errPath := p.parse(func(idx uint64) parEntry {
		ctx.LoadBytesInto(bucket[:], p.bucketAddr(idx))
		return bucket.entry(idx)
	}, sentence, opt)
	if errPath {
		// The error path: count it, emit a zero parse.
		ctx.Store(p.errs, ctx.Load(p.errs)+1)
		ctx.Compute(2000)
		ctx.Store(p.out+uva.Addr(iter*8), 0)
		return
	}
	if p.special[iter] == 2 {
		ctx.Store(p.opt, opt|8)
	}
	ctx.Compute(int64(len(sentence))*parInstrProbe + int64(passes)*int64(len(sentence))*parInstrWord)
	ctx.Store(p.out+uva.Addr(iter*8), cost)
}

func (p *parProg) Checksum(img *mem.Image) uint64 {
	h := img.Load(p.opt)
	h = mix(h, img.Load(p.errs))
	h = mix(h, img.ChecksumRange(p.out, int(p.sentences)*8))
	return h
}
