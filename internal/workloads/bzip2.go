package workloads

import (
	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// 256.bzip2 — file compressor. Like 164.gzip the pipeline is read /
// compress / write, but the block size is fixed and known in the first
// stage, so no Y-branch is needed; error-handling control-flow paths are
// speculated not taken, and DSMTX's versioning gives each worker its own
// block arrays. The compression kernel (move-to-front + run-length
// encoding, the heart of bzip2's post-sort pipeline) costs far more
// compute per byte than gzip's, so bandwidth pressure is lower and
// scalability better.
//
// The paper notes TLS beats Spec-DSWP slightly here: Spec-DSWP streams the
// whole input through the first stage, while TLS sends each worker only the
// file descriptor and lets it read its own block — reproduced below by TLS
// workers pulling their blocks via Copy-On-Access instead of the pipeline.

const (
	bzBlocks       = 260
	bzBlockBytes   = 16 << 10
	bzInstrPerUnit = 11 // per unit of MTF/RLE work actually performed
)

type bzProg struct {
	tls     bool
	blocks  uint64
	src     inputKey
	errIter map[uint64]bool // blocks tripping the speculated error path

	input  uva.Addr
	output uva.Addr
	outLen uva.Addr
	outCur uva.Addr
}

func newBzProg(in Input, tls bool) *bzProg {
	blocks := uint64(bzBlocks * in.scale())
	return &bzProg{
		tls:     tls,
		blocks:  blocks,
		src:     bzInputKey(in),
		errIter: misspecSet(blocks, in.MisspecRate, in.Seed+3),
	}
}

// bzInputKey names the input file, every block in one buffer.
func bzInputKey(in Input) inputKey {
	return inputKey{bzGen, in.Seed, int64(bzBlocks*in.scale()) * bzBlockBytes}
}

// Bzip2 returns the Table 2 entry.
func Bzip2() *Benchmark {
	return &Benchmark{
		Name:        "256.bzip2",
		Suite:       "SPEC CINT 2000",
		Description: "file compressor",
		SpecTypes:   "CFS,MV",
		Invocations: 1,
		NewDSMTX:    func(in Input, _ int) Program { return newBzProg(in, false) },
		NewTLS:      func(in Input, _ int) Program { return newBzProg(in, true) },
		input:       bzInputKey,
	}
}

func (p *bzProg) Plan() pipeline.Plan {
	if p.tls {
		return pipeline.TLS()
	}
	return pipeline.SpecDSWP("S", "DOALL", "S")
}

func (p *bzProg) Iterations() uint64 { return p.blocks }

func (p *bzProg) blockAddr(i uint64) uva.Addr { return p.input + uva.Addr(i*bzBlockBytes) }

func (p *bzProg) Setup(ctx *core.SeqCtx) {
	total := int64(p.blocks) * bzBlockBytes
	p.input = ctx.Alloc(total)
	p.output = ctx.Alloc(2*total + int64(p.blocks)*512)
	p.outLen = ctx.AllocWords(int(p.blocks))
	p.outCur = ctx.AllocWords(1)
	if ctx.Shadow() {
		return
	}
	img := ctx.Image()
	img.MapPages(p.input, inputFrames(p.src))
	for i := range p.errIter {
		// Triggers the speculated-not-taken error path: the store copies
		// the block's first page, so the cached frame stays clean.
		img.StoreBytes(p.blockAddr(i), []byte{0xFE})
	}
	ctx.Store(p.outCur, 0)
}

func (p *bzProg) compress(block []byte) (comp []byte, instr int64, errPath bool) {
	if block[0] == 0xFE {
		return nil, 0, true
	}
	comp, work := mtfRLE(block)
	return comp, int64(work) * bzInstrPerUnit, false
}

func (p *bzProg) Stage(ctx *core.Ctx, stage int, iter uint64) bool {
	if p.tls {
		return p.tlsStage(ctx, iter)
	}
	switch stage {
	case 0: // sequential: read the fixed-size block, stream it down
		if iter >= p.blocks {
			return false
		}
		block := ctx.LoadBytes(p.blockAddr(iter), bzBlockBytes)
		ctx.ProduceData(1, block, bzBlockBytes)
	case 1: // parallel: compress
		block := ctx.ConsumeData(0).([]byte)
		comp, instr, errPath := p.compress(block)
		if errPath {
			ctx.Misspec()
		}
		ctx.Compute(instr)
		ctx.ProduceData(2, comp, len(comp))
	case 2: // sequential: write
		comp := ctx.ConsumeData(1).([]byte)
		out := ctx.Load(p.outCur)
		ctx.WriteBytesCommit(p.output+uva.Addr(out), comp)
		ctx.WriteCommit(p.outLen+uva.Addr(iter*8), uint64(len(comp)))
		ctx.WriteCommit(p.outCur, out+uint64(alignUp(len(comp))))
	}
	return true
}

// tlsStage reads its own block (only the "file descriptor" — the block
// index — is implicit) and synchronizes the output cursor after
// compressing.
func (p *bzProg) tlsStage(ctx *core.Ctx, iter uint64) bool {
	if iter >= p.blocks {
		return false
	}
	block := ctx.LoadBytes(p.blockAddr(iter), bzBlockBytes)
	comp, instr, errPath := p.compress(block)
	if errPath {
		ctx.Misspec()
	}
	ctx.Compute(instr)
	var out uint64
	if ctx.EpochFirst() {
		out = ctx.Load(p.outCur)
	} else {
		out = ctx.SyncRecv()
	}
	// Forward the cursor the moment it is known (the optimal sync
	// placement): the block write itself happens off the critical path.
	newOut := out + uint64(alignUp(len(comp)))
	ctx.SyncSend(newOut)
	ctx.WriteBytesCommit(p.output+uva.Addr(out), comp)
	ctx.WriteCommit(p.outLen+uva.Addr(iter*8), uint64(len(comp)))
	ctx.WriteCommit(p.outCur, newOut)
	return true
}

func (p *bzProg) SeqIter(ctx *core.SeqCtx, iter uint64) {
	block := ctx.LoadBytes(p.blockAddr(iter), bzBlockBytes)
	comp, instr, errPath := p.compress(block)
	if errPath {
		// The error path stores the block uncompressed.
		comp = block
		instr = int64(len(block))
	}
	ctx.Compute(instr)
	out := ctx.Load(p.outCur)
	ctx.StoreBytes(p.output+uva.Addr(out), comp)
	ctx.Store(p.outLen+uva.Addr(iter*8), uint64(len(comp)))
	ctx.Store(p.outCur, out+uint64(alignUp(len(comp))))
}

func (p *bzProg) Checksum(img *mem.Image) uint64 {
	h := img.Load(p.outCur)
	h = mix(h, img.ChecksumRange(p.output, int(img.Load(p.outCur))))
	h = mix(h, img.ChecksumRange(p.outLen, int(p.blocks)*8))
	return h
}

// decompressAll reconstructs the original input (test support). Error-path
// blocks were stored raw.
func (p *bzProg) decompressAll(img *mem.Image) []byte {
	var out []byte
	off := uint64(0)
	for i := uint64(0); i < p.blocks; i++ {
		n := img.Load(p.outLen + uva.Addr(i*8))
		comp := img.LoadBytes(p.output+uva.Addr(off), int(n))
		if p.errIter[i] {
			out = append(out, comp...)
		} else {
			out = append(out, mtfRLEInverse(comp)...)
		}
		off += uint64(alignUp(int(n)))
	}
	return out
}
