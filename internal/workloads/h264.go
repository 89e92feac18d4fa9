package workloads

import (
	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// 464.h264ref — video encoder. Groups of Pictures (GoPs) are encoded in
// parallel: each iteration motion-estimates and encodes one GoP against its
// own intra frame, with DSMTX's dynamic memory versioning giving every
// worker private copies of the encoder's frame buffers (breaking the false
// dependences that serialize a shared-buffer encoder). A sequential stage
// assembles the bitstream in order. Speedup is limited primarily by the
// number of GoPs available.
//
// TLS: the encoder's rate-control state is a synchronized dependence whose
// source and sink sit inside the per-frame inner loop; the conservative TLS
// placement receives it before the GoP and releases it after, effectively
// serializing execution — the paper's explanation for the flat TLS curve.

const (
	h264GoPs       = 72
	h264Frames     = 4  // frames per GoP (1 intra + 3 predicted)
	h264Dim        = 48 // luma frame is h264Dim x h264Dim
	h264MB         = 16 // macroblock edge
	h264Search     = 4  // motion search range (±)
	h264InstrPerOp = 2  // per SAD accumulate
)

type h264Prog struct {
	tls  bool
	gops uint64
	seed uint64

	frames uva.Addr // raw video: gops * frames * dim*dim bytes
	stream uva.Addr // output bitstream
	strLen uva.Addr // per-GoP encoded length
	cursor uva.Addr // bitstream cursor (loop-carried, last stage)
	rate   uva.Addr // rate-control accumulator
}

func newH264Prog(in Input, tls bool) *h264Prog {
	return &h264Prog{tls: tls, gops: uint64(h264GoPs * in.scale()), seed: in.Seed}
}

// H264 returns the Table 2 entry.
func H264() *Benchmark {
	return &Benchmark{
		Name:        "464.h264ref",
		Suite:       "SPEC CINT 2006",
		Description: "video encoder",
		SpecTypes:   "MV",
		Invocations: 1,
		NewDSMTX:    func(in Input, _ int) Program { return newH264Prog(in, false) },
		NewTLS:      func(in Input, _ int) Program { return newH264Prog(in, true) },
	}
}

func (p *h264Prog) Plan() pipeline.Plan {
	if p.tls {
		return pipeline.TLS()
	}
	return pipeline.SpecDSWP("DOALL", "S")
}

func (p *h264Prog) Iterations() uint64 { return p.gops }

const h264FrameBytes = h264Dim * h264Dim

func (p *h264Prog) gopAddr(g uint64) uva.Addr {
	return p.frames + uva.Addr(g*h264Frames*h264FrameBytes)
}

func (p *h264Prog) Setup(ctx *core.SeqCtx) {
	total := int64(p.gops) * h264Frames * h264FrameBytes
	p.frames = ctx.Alloc(total)
	p.stream = ctx.Alloc(total) // encoded output is smaller; total is a bound
	p.strLen = ctx.AllocWords(int(p.gops))
	p.cursor = ctx.AllocWords(1)
	p.rate = ctx.AllocWords(1)
	if ctx.Shadow() {
		return
	}
	img := ctx.Image()
	r := newRNG(p.seed)
	// Synthesize video: a drifting gradient plus noise, so motion search
	// finds real (nonzero) motion vectors.
	buf := make([]byte, h264FrameBytes)
	for g := uint64(0); g < p.gops; g++ {
		for f := 0; f < h264Frames; f++ {
			shift := int(g%7) + f*2
			for y := 0; y < h264Dim; y++ {
				for x := 0; x < h264Dim; x++ {
					v := (x + y + shift) * 3
					if r.intn(16) == 0 {
						v += r.intn(32)
					}
					buf[y*h264Dim+x] = byte(v)
				}
			}
			img.StoreBytes(p.gopAddr(g)+uva.Addr(f*h264FrameBytes), buf)
		}
	}
	ctx.Store(p.cursor, 0)
	ctx.Store(p.rate, 0)
}

// sad is the sum of absolute differences between a macroblock at (mx,my)
// in cur and (mx+dx, my+dy) in ref.
func sad(cur, ref []byte, mx, my, dx, dy int) (int, bool) {
	if mx+dx < 0 || my+dy < 0 || mx+dx+h264MB > h264Dim || my+dy+h264MB > h264Dim {
		return 0, false
	}
	s := 0
	for y := 0; y < h264MB; y++ {
		co := (my+y)*h264Dim + mx
		ro := (my+dy+y)*h264Dim + mx + dx
		for x := 0; x < h264MB; x++ {
			d := int(cur[co+x]) - int(ref[ro+x])
			if d < 0 {
				d = -d
			}
			s += d
		}
	}
	return s, true
}

// encodeGoP motion-estimates and entropy-packs one GoP; ops is the real SAD
// accumulate count. The quantizer derives from the GoP index, keeping the
// encode a pure function of the input (rate control is bookkeeping handled
// by the sequential stage).
func (p *h264Prog) encodeGoP(gop []byte, g uint64) (out []byte, ops int64) {
	quant := 8 + int(g%4)
	out = append(out, byte(quant))
	for f := 1; f < h264Frames; f++ {
		cur := gop[f*h264FrameBytes : (f+1)*h264FrameBytes]
		ref := gop[(f-1)*h264FrameBytes : f*h264FrameBytes]
		for my := 0; my+h264MB <= h264Dim; my += h264MB {
			for mx := 0; mx+h264MB <= h264Dim; mx += h264MB {
				bestS, bestDx, bestDy := 1<<30, 0, 0
				for dy := -h264Search; dy <= h264Search; dy++ {
					for dx := -h264Search; dx <= h264Search; dx++ {
						s, ok := sad(cur, ref, mx, my, dx, dy)
						if !ok {
							continue
						}
						ops += h264MB * h264MB
						if s < bestS {
							bestS, bestDx, bestDy = s, dx, dy
						}
					}
				}
				// Pack motion vector + quantized residual energy.
				out = append(out, byte(bestDx+h264Search), byte(bestDy+h264Search),
					byte(bestS/quant), byte(bestS/quant>>8))
			}
		}
	}
	return out, ops
}

func (p *h264Prog) Stage(ctx *core.Ctx, stage int, iter uint64) bool {
	if p.tls {
		return p.tlsStage(ctx, iter)
	}
	switch stage {
	case 0: // parallel: encode one GoP in private frame buffers
		if iter >= p.gops {
			return false
		}
		gop := ctx.LoadBytes(p.gopAddr(iter), h264Frames*h264FrameBytes)
		out, ops := p.encodeGoP(gop, iter)
		ctx.Compute(ops * h264InstrPerOp)
		ctx.ProduceData(1, out, len(out))
	case 1: // sequential: assemble the bitstream, track rate
		out := ctx.ConsumeData(0).([]byte)
		cur := ctx.Load(p.cursor)
		ctx.WriteBytesCommit(p.stream+uva.Addr(cur), out)
		ctx.WriteCommit(p.strLen+uva.Addr(iter*8), uint64(len(out)))
		ctx.WriteCommit(p.cursor, cur+uint64(alignUp(len(out))))
		ctx.WriteCommit(p.rate, ctx.Load(p.rate)+uint64(len(out)))
	}
	return true
}

// tlsStage holds the rate-control token across the whole GoP encode — the
// conservative synchronization placement that serializes TLS here.
func (p *h264Prog) tlsStage(ctx *core.Ctx, iter uint64) bool {
	if iter >= p.gops {
		return false
	}
	var cur, rate uint64
	if ctx.EpochFirst() {
		cur, rate = ctx.Load(p.cursor), ctx.Load(p.rate)
	} else {
		v := ctx.SyncRecvVec(2)
		cur, rate = v[0], v[1]
	}
	gop := ctx.LoadBytes(p.gopAddr(iter), h264Frames*h264FrameBytes)
	out, ops := p.encodeGoP(gop, iter)
	ctx.Compute(ops * h264InstrPerOp)
	ctx.WriteBytesCommit(p.stream+uva.Addr(cur), out)
	ctx.WriteCommit(p.strLen+uva.Addr(iter*8), uint64(len(out)))
	newCur := cur + uint64(alignUp(len(out)))
	ctx.WriteCommit(p.cursor, newCur)
	ctx.WriteCommit(p.rate, rate+uint64(len(out)))
	ctx.SyncSendVec([]uint64{newCur, rate + uint64(len(out))})
	return true
}

func (p *h264Prog) SeqIter(ctx *core.SeqCtx, iter uint64) {
	gop := ctx.LoadBytes(p.gopAddr(iter), h264Frames*h264FrameBytes)
	out, ops := p.encodeGoP(gop, iter)
	ctx.Compute(ops * h264InstrPerOp)
	cur := ctx.Load(p.cursor)
	ctx.StoreBytes(p.stream+uva.Addr(cur), out)
	ctx.Store(p.strLen+uva.Addr(iter*8), uint64(len(out)))
	ctx.Store(p.cursor, cur+uint64(alignUp(len(out))))
	ctx.Store(p.rate, ctx.Load(p.rate)+uint64(len(out)))
}

func (p *h264Prog) Checksum(img *mem.Image) uint64 {
	h := img.Load(p.cursor)
	h = mix(h, img.Load(p.rate))
	h = mix(h, img.ChecksumRange(p.strLen, int(p.gops)*8))
	h = mix(h, img.ChecksumRange(p.stream, int(img.Load(p.cursor))))
	return h
}
