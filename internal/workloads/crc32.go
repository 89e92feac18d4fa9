package workloads

import (
	"hash/crc32"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// crc32 — polynomial code checksum over a set of input files (the paper's
// reference implementation benchmark). Each iteration block-reads one file
// and computes its CRC-32; a sequential stage combines the per-file CRCs
// into the report. Speculation: CFS on the error path (a corrupt file) plus
// memory versioning. Speedup is limited by the number of input files.
//
// DSMTX: DSWP+[Spec-DOALL,S]. TLS: the combine step is a synchronized
// cross-iteration dependence carried around the ring.

const (
	crcFiles     = 96
	crcFileBytes = 64 << 10
	// crcInstrPerByte is the cost model of the paper-era table-driven
	// software CRC, one byte per step. The host computes the same checksum
	// with hash/crc32, so this constant, not the host loop, is what a file
	// costs in virtual time.
	crcInstrPerByte = 20
)

// crc32sum is the IEEE CRC-32 (reflected polynomial 0xedb88320, initial
// value and final xor all ones).
func crc32sum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

type crcProg struct {
	tls     bool
	files   uint64
	src     inputKey
	corrupt map[uint64]bool

	input uva.Addr // file i at input + i*crcFileBytes
	out   uva.Addr // per-file CRC words
	acc   uva.Addr // combined running checksum (loop-carried)
}

func newCRCProg(in Input, tls bool) *crcProg {
	files := uint64(crcFiles * in.scale())
	return &crcProg{
		tls:     tls,
		files:   files,
		src:     crcInputKey(in),
		corrupt: misspecSet(files, in.MisspecRate, in.Seed),
	}
}

// crcInputKey names the input files, all of them in one buffer.
func crcInputKey(in Input) inputKey {
	return inputKey{crcGen, in.Seed, int64(crcFiles*in.scale()) * crcFileBytes}
}

// CRC32 returns the Table 2 entry.
func CRC32() *Benchmark {
	return &Benchmark{
		Name:        "crc32",
		Suite:       "Ref. Impl.",
		Description: "polynomial code checksum",
		Paradigm:    "DSWP+[Spec-DOALL,S]",
		SpecTypes:   "CFS,MV",
		Invocations: 1,
		NewDSMTX:    func(in Input, _ int) Program { return newCRCProg(in, false) },
		NewTLS:      func(in Input, _ int) Program { return newCRCProg(in, true) },
		input:       crcInputKey,
	}
}

func (p *crcProg) Plan() pipeline.Plan {
	if p.tls {
		return pipeline.TLS()
	}
	return pipeline.DSWP("Spec-DOALL", "S")
}

func (p *crcProg) Iterations() uint64 { return p.files }

func (p *crcProg) fileAddr(i uint64) uva.Addr { return p.input + uva.Addr(i*crcFileBytes) }

func (p *crcProg) Setup(ctx *core.SeqCtx) {
	p.input = ctx.Alloc(int64(p.files) * crcFileBytes)
	p.out = ctx.AllocWords(int(p.files))
	p.acc = ctx.AllocWords(1)
	if ctx.Shadow() {
		return
	}
	img := ctx.Image() // input "files" pre-exist; loading them is not timed
	img.StoreBytes(p.input, cachedInput(p.src))
	for i := range p.corrupt {
		// Corrupt-header marker, the speculated-away error path: written
		// into the image, never into the cached input.
		img.StoreBytes(p.fileAddr(i), []byte{0xFF})
	}
	ctx.Store(p.acc, 0)
}

// checkFile performs the real per-file work and reports the CRC, or ok =
// false for the corrupt-header error path.
func (p *crcProg) checkFile(data []byte) (crc uint64, ok bool) {
	if data[0] == 0xFF {
		return 0, false
	}
	return uint64(crc32sum(data)), true
}

func (p *crcProg) Stage(ctx *core.Ctx, stage int, iter uint64) bool {
	if p.tls {
		return p.tlsStage(ctx, iter)
	}
	switch stage {
	case 0: // parallel: block-read the file, compute its CRC
		if iter >= p.files {
			return false
		}
		data := ctx.LoadBytes(p.fileAddr(iter), crcFileBytes)
		crc, ok := p.checkFile(data)
		if !ok {
			ctx.Misspec() // speculated: "errors do not occur"
		}
		ctx.Compute(crcInstrPerByte * crcFileBytes)
		ctx.Produce(1, crc)
	case 1: // sequential: record and combine
		crc := ctx.Consume(0)
		ctx.WriteCommit(p.out+uva.Addr(iter*8), crc)
		ctx.WriteCommit(p.acc, mix(ctx.Load(p.acc), crc))
	}
	return true
}

func (p *crcProg) tlsStage(ctx *core.Ctx, iter uint64) bool {
	if iter >= p.files {
		return false
	}
	data := ctx.LoadBytes(p.fileAddr(iter), crcFileBytes)
	crc, ok := p.checkFile(data)
	if !ok {
		ctx.Misspec()
	}
	ctx.Compute(crcInstrPerByte * crcFileBytes)
	// The combined checksum is synchronized: received from the previous
	// iteration, forwarded to the next.
	var acc uint64
	if ctx.EpochFirst() {
		acc = ctx.Load(p.acc)
	} else {
		acc = ctx.SyncRecv()
	}
	acc = mix(acc, crc)
	ctx.WriteCommit(p.acc, acc)
	ctx.SyncSend(acc)
	ctx.WriteCommit(p.out+uva.Addr(iter*8), crc)
	return true
}

func (p *crcProg) SeqIter(ctx *core.SeqCtx, iter uint64) {
	data := ctx.LoadBytes(p.fileAddr(iter), crcFileBytes)
	crc, ok := p.checkFile(data)
	if !ok {
		crc = 0xDEADBEEF // the rare error path: record a sentinel
	} else {
		ctx.Compute(crcInstrPerByte * crcFileBytes)
	}
	ctx.Store(p.out+uva.Addr(iter*8), crc)
	ctx.Store(p.acc, mix(ctx.Load(p.acc), crc))
}

func (p *crcProg) Checksum(img *mem.Image) uint64 {
	h := img.Load(p.acc)
	for i := uint64(0); i < p.files; i++ {
		h = mix(h, img.Load(p.out+uva.Addr(i*8)))
	}
	return h
}
