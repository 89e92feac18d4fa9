package workloads

import (
	"sync"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// 164.gzip — file compressor. The pipeline is read-block / compress-block /
// write-block. gzip's variable block size means the next block's start is
// known only after the current block compresses; the Y-branch transform
// starts blocks at fixed intervals instead, breaking the dependence for the
// DSMTX parallelization (Spec-DSWP+[S,DOALL,S]) — DSMTX's memory versioning
// gives every compressing worker its own copy of the block arrays. The
// whole input streams through the first stage's NIC, which is why gzip has
// the paper's highest bandwidth requirement and limited scalability.
//
// TLS cannot use the Y-branch (the block boundary is a synchronized
// dependence received before compressing), so its iterations serialize on
// compression — the paper's low, flat TLS curve.

const (
	gzBlocks         = 250
	gzBlockBytes     = 24 << 10
	gzInstrPerProbe  = 14 // hash probe + match extension step
	gzInstrPerHuffOp = 3  // per Huffman operation (count/emit bit)
)

type gzProg struct {
	tls    bool
	blocks uint64
	src    inputKey

	input  uva.Addr // the file, gzBlocks * gzBlockBytes
	output uva.Addr // compressed blocks, back to back
	outLen uva.Addr // per-block compressed length words
	cursor uva.Addr // input cursor (loop-carried, stage 0)
	outCur uva.Addr // output cursor (loop-carried, stage 2)
}

func newGzProg(in Input, tls bool) *gzProg {
	return &gzProg{tls: tls, blocks: uint64(gzBlocks * in.scale()), src: gzInputKey(in)}
}

// gzInputKey names the input file: one scale's worth of blocks.
func gzInputKey(in Input) inputKey {
	return inputKey{gzGen, in.Seed, int64(gzBlocks*in.scale()) * gzBlockBytes}
}

// Gzip returns the Table 2 entry.
func Gzip() *Benchmark {
	return &Benchmark{
		Name:        "164.gzip",
		Suite:       "SPEC CINT 2000",
		Description: "file compressor",
		SpecTypes:   "MV",
		Invocations: 1,
		NewDSMTX:    func(in Input, _ int) Program { return newGzProg(in, false) },
		NewTLS:      func(in Input, _ int) Program { return newGzProg(in, true) },
		input:       gzInputKey,
	}
}

func (p *gzProg) Plan() pipeline.Plan {
	if p.tls {
		return pipeline.TLS()
	}
	return pipeline.SpecDSWP("S", "DOALL", "S")
}

func (p *gzProg) Iterations() uint64 { return p.blocks }

func (p *gzProg) Setup(ctx *core.SeqCtx) {
	total := int64(p.blocks) * gzBlockBytes
	p.input = ctx.Alloc(total)
	p.output = ctx.Alloc(total + int64(p.blocks)*512)
	p.outLen = ctx.AllocWords(int(p.blocks))
	p.cursor = ctx.AllocWords(1)
	p.outCur = ctx.AllocWords(1)
	if ctx.Shadow() {
		return
	}
	ctx.Image().MapPages(p.input, inputFrames(p.src))
	ctx.Store(p.cursor, 0)
	ctx.Store(p.outCur, 0)
}

// lzScratch recycles the LZ77 token stream between compress calls: it is
// consumed by huffEncode and never escapes, so the buffer can go straight
// back in the pool. Safe under concurrent simulations: each Get hands the
// buffer to exactly one goroutine, and lzCompressInto overwrites from
// offset zero before any read.
var lzScratch sync.Pool

// gzBlockBufs recycles the buffer tlsStage and SeqIter read a block into:
// compress is done with it when it returns, so the calling rank borrows one
// for the call. Stage 0 keeps LoadBytes, since its block goes down the
// queue.
var gzBlockBufs = sync.Pool{New: func() any { return new([gzBlockBytes]byte) }}

// compress does the block's real work — LZ77 then canonical Huffman, the
// two halves of deflate; costs derive from the operations each half
// actually performed. probes and work are the vtime cost contract (instr
// feeds ctx.Compute) and the output bytes feed every gzip checksum, so a
// faster kernel must reproduce all three exactly: TestGzipKernelPinned pins
// them over real blocks and corner inputs.
func (p *gzProg) compress(block []byte) (comp []byte, instr int64) {
	buf, _ := lzScratch.Get().([]byte)
	lz, probes := lzCompressInto(block, buf)
	comp, huffWork := huffEncode(lz)
	lzScratch.Put(lz[:0])
	return comp, int64(probes)*gzInstrPerProbe + huffWork*gzInstrPerHuffOp
}

func (p *gzProg) Stage(ctx *core.Ctx, stage int, iter uint64) bool {
	if p.tls {
		return p.tlsStage(ctx, iter)
	}
	switch stage {
	case 0: // sequential: read a block at a fixed (Y-branch) interval
		if iter >= p.blocks {
			return false
		}
		cur := ctx.Load(p.cursor)
		block := ctx.LoadBytes(p.input+uva.Addr(cur), gzBlockBytes)
		ctx.WriteCommit(p.cursor, cur+gzBlockBytes)
		ctx.ProduceData(1, block, gzBlockBytes)
	case 1: // parallel: compress
		block := ctx.ConsumeData(0).([]byte)
		comp, instr := p.compress(block)
		ctx.Compute(instr)
		ctx.ProduceData(2, comp, len(comp))
	case 2: // sequential: write the compressed block
		comp := ctx.ConsumeData(1).([]byte)
		out := ctx.Load(p.outCur)
		ctx.WriteBytesCommit(p.output+uva.Addr(out), comp)
		ctx.WriteCommit(p.outLen+uva.Addr(iter*8), uint64(len(comp)))
		ctx.WriteCommit(p.outCur, out+uint64(alignUp(len(comp))))
	}
	return true
}

// tlsStage serializes on the block boundary: without the Y-branch the input
// cursor is a synchronized dependence resolved only after compressing.
func (p *gzProg) tlsStage(ctx *core.Ctx, iter uint64) bool {
	if iter >= p.blocks {
		return false
	}
	var cur, out uint64
	if ctx.EpochFirst() {
		cur, out = ctx.Load(p.cursor), ctx.Load(p.outCur)
	} else {
		v := ctx.SyncRecvVec(2)
		cur, out = v[0], v[1]
	}
	block := gzBlockBufs.Get().(*[gzBlockBytes]byte)
	ctx.LoadBytesInto(block[:], p.input+uva.Addr(cur))
	comp, instr := p.compress(block[:])
	gzBlockBufs.Put(block)
	ctx.Compute(instr)
	// Only now is the next block's start (and output position) known.
	ctx.WriteCommit(p.cursor, cur+gzBlockBytes)
	ctx.WriteBytesCommit(p.output+uva.Addr(out), comp)
	ctx.WriteCommit(p.outLen+uva.Addr(iter*8), uint64(len(comp)))
	newOut := out + uint64(alignUp(len(comp)))
	ctx.WriteCommit(p.outCur, newOut)
	ctx.SyncSendVec([]uint64{cur + gzBlockBytes, newOut})
	return true
}

func (p *gzProg) SeqIter(ctx *core.SeqCtx, iter uint64) {
	cur := ctx.Load(p.cursor)
	block := gzBlockBufs.Get().(*[gzBlockBytes]byte)
	ctx.LoadBytesInto(block[:], p.input+uva.Addr(cur))
	ctx.Store(p.cursor, cur+gzBlockBytes)
	comp, instr := p.compress(block[:])
	gzBlockBufs.Put(block)
	ctx.Compute(instr)
	out := ctx.Load(p.outCur)
	ctx.StoreBytes(p.output+uva.Addr(out), comp)
	ctx.Store(p.outLen+uva.Addr(iter*8), uint64(len(comp)))
	ctx.Store(p.outCur, out+uint64(alignUp(len(comp))))
}

func (p *gzProg) Checksum(img *mem.Image) uint64 {
	h := img.Load(p.outCur)
	h = mix(h, img.ChecksumRange(p.output, int(img.Load(p.outCur))))
	h = mix(h, img.ChecksumRange(p.outLen, int(p.blocks)*8))
	return h
}

// decompressAll reconstructs the original input from committed memory (test
// support: compression must round-trip).
func (p *gzProg) decompressAll(img *mem.Image) []byte {
	var out []byte
	off := uint64(0)
	for i := uint64(0); i < p.blocks; i++ {
		n := img.Load(p.outLen + uva.Addr(i*8))
		comp := img.LoadBytes(p.output+uva.Addr(off), int(n))
		out = append(out, lzDecompress(huffDecode(comp))...)
		off += uint64(alignUp(int(n)))
	}
	return out
}

// alignUp rounds a length to the word size so block starts stay aligned.
func alignUp(n int) int { return (n + 7) &^ 7 }
