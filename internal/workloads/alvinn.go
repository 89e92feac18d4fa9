package workloads

import (
	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// 052.alvinn — neural network training. The parallelized loop is the
// per-chunk gradient computation at the second level of the training loop
// nest: every invocation (epoch) forward/backward-propagates the training
// chunks in parallel, each worker accumulating into its own gradient array
// (the paper's accumulator expansion), and ends with a sequential reduction
// over those arrays plus the weight update. As the paper notes, every
// invocation re-initializes workers with data from the commit unit
// (Copy-On-Access of weights and samples) and communicates the reduction
// arrays back at the end — those synchronizations, i.e. communication
// bandwidth, bound the speedup.
//
// Gradients accumulate in 44.20 fixed point, so the reduction is exact and
// independent of summation order — the committed result is identical for
// any worker count, and to the sequential reference.
//
// TLS and DSMTX parallelizations are identical: Spec-DOALL with no
// cross-iteration communication (the paper makes the same observation).
// The loop has no speculated dependences that can manifest, so it never
// misspeculates (it is excluded from the paper's recovery study).

const (
	alvEpochs    = 2
	alvChunks    = 496
	alvChunkSize = 16 // samples per iteration
	alvIn        = 96
	alvHid       = 16
	alvOut       = 8
	alvInstrMAC  = 8
	alvWeightLen = alvIn*alvHid + alvHid*alvOut // 1664 words
	alvSlotWords = 2048                         // slot stride: 4 whole pages
	alvSlots     = 128                          // max accumulator slots
	alvLearnRate = 0.02
	alvFixShift  = 20 // fixed-point fraction bits
)

type alvProg struct {
	epoch  int
	chunks uint64
	seed   uint64

	weights uva.Addr // network weights (carried across invocations)
	samples uva.Addr // inputs+targets per sample
	grads   uva.Addr // per-slot gradient accumulators (int64 fixed point)
}

// Samples are stored as bytes (the real ALVINN's retina inputs are pixel
// intensities), decoded to [0,1] floats in the kernel.
const alvSampleBytes = alvIn + alvOut

func newAlvProg(in Input, inv int) *alvProg {
	return &alvProg{epoch: inv, chunks: uint64(alvChunks * in.scale()), seed: in.Seed}
}

// Alvinn returns the Table 2 entry.
func Alvinn() *Benchmark {
	return &Benchmark{
		Name:        "052.alvinn",
		Suite:       "SPEC CFP 92",
		Description: "neural network",
		SpecTypes:   "MV",
		Invocations: alvEpochs,
		NewDSMTX:    func(in Input, inv int) Program { return newAlvProg(in, inv) },
		NewTLS:      func(in Input, inv int) Program { return newAlvProg(in, inv) },
	}
}

func (p *alvProg) Plan() pipeline.Plan { return pipeline.SpecDOALL() }

func (p *alvProg) Iterations() uint64 { return p.chunks }

func (p *alvProg) chunkSamplesAddr(iter uint64) uva.Addr {
	return p.samples + uva.Addr(iter*alvChunkSize*alvSampleBytes)
}

func (p *alvProg) slotAddr(slot int) uva.Addr {
	return p.grads + uva.Addr(slot*alvSlotWords*8)
}

func (p *alvProg) Setup(ctx *core.SeqCtx) {
	// Allocation order is identical every epoch, so addresses persist
	// across invocations and the weight state carries through the image.
	p.weights = ctx.AllocWords(alvWeightLen)
	p.samples = ctx.Alloc(int64(p.chunks) * alvChunkSize * alvSampleBytes)
	p.grads = ctx.AllocWords(alvSlots * alvSlotWords)
	if ctx.Shadow() {
		return
	}
	img := ctx.Image()
	if p.epoch == 0 {
		r := newRNG(p.seed)
		for i := 0; i < alvWeightLen; i++ {
			img.Store(p.weights+uva.Addr(i*8), bitsOf(0.2*r.float()-0.1))
		}
	}
	r := newRNG(p.seed + 7)
	data := make([]byte, int(p.chunks)*alvChunkSize*alvSampleBytes)
	for s := 0; s < int(p.chunks)*alvChunkSize; s++ {
		base := s * alvSampleBytes
		for d := 0; d < alvIn; d++ {
			data[base+d] = byte(r.intn(256))
		}
		for o := 0; o < alvOut; o++ {
			data[base+alvIn+o] = byte(o % 2)
		}
	}
	img.StoreBytes(p.samples, data)
	// Accumulator slots start each epoch zeroed.
	zero := make([]byte, alvSlotWords*8)
	for c := 0; c < alvSlots; c++ {
		img.StoreBytes(p.slotAddr(c), zero)
	}
}

// chunkGradient is the real work: forward and backward passes over the
// chunk's byte-encoded samples, producing the fixed-point weight gradient.
func (p *alvProg) chunkGradient(weights []float64, raw []byte) (grad []int64, macs int64) {
	samples := make([]float64, len(raw))
	for i, b := range raw {
		samples[i] = float64(b) / 255
		if i%alvSampleBytes >= alvIn {
			samples[i] = float64(b) // targets are 0/1 labels
		}
	}
	g := make([]float64, alvWeightLen)
	w1 := weights[:alvIn*alvHid]
	w2 := weights[alvIn*alvHid:]
	g1 := g[:alvIn*alvHid]
	g2 := g[alvIn*alvHid:]
	for s := 0; s < alvChunkSize; s++ {
		in := samples[s*alvSampleBytes : s*alvSampleBytes+alvIn]
		target := samples[s*alvSampleBytes+alvIn : (s+1)*alvSampleBytes]
		var hid [alvHid]float64
		for h := 0; h < alvHid; h++ {
			var sum float64
			for i := 0; i < alvIn; i++ {
				sum += in[i] * w1[i*alvHid+h]
			}
			macs += alvIn
			hid[h] = sigmoid(sum)
		}
		var out [alvOut]float64
		for o := 0; o < alvOut; o++ {
			var sum float64
			for h := 0; h < alvHid; h++ {
				sum += hid[h] * w2[h*alvOut+o]
			}
			macs += alvHid
			out[o] = sigmoid(sum)
		}
		var dOut [alvOut]float64
		for o := 0; o < alvOut; o++ {
			dOut[o] = (target[o] - out[o]) * out[o] * (1 - out[o])
		}
		for h := 0; h < alvHid; h++ {
			var dh float64
			for o := 0; o < alvOut; o++ {
				g2[h*alvOut+o] += hid[h] * dOut[o]
				dh += w2[h*alvOut+o] * dOut[o]
			}
			macs += 2 * alvOut
			dh *= hid[h] * (1 - hid[h])
			for i := 0; i < alvIn; i++ {
				g1[i*alvHid+h] += in[i] * dh
			}
			macs += alvIn
		}
	}
	grad = make([]int64, alvWeightLen)
	for i, v := range g {
		grad[i] = int64(v * (1 << alvFixShift))
	}
	return grad, macs
}

func sigmoid(x float64) float64 {
	// A rational approximation keeps the kernel branch-free and cheap.
	if x < 0 {
		return 1 - sigmoid(-x)
	}
	return 1 - 1/(2+2*x+x*x)
}

// accumulate adds a gradient into a packed slot image.
func accumulate(slot []byte, grad []int64) []byte {
	words := unpackWords(slot)
	for i, g := range grad {
		words[i] = uint64(int64(words[i]) + g)
	}
	out := make([]byte, len(slot))
	for i, w := range words {
		for k := 0; k < 8; k++ {
			out[i*8+k] = byte(w >> (8 * k))
		}
	}
	return out
}

func (p *alvProg) Stage(ctx *core.Ctx, _ int, iter uint64) bool {
	if iter >= p.chunks {
		return false
	}
	weights := unpackFloats(ctx.LoadBytes(p.weights, alvWeightLen*8))
	raw := ctx.LoadBytes(p.chunkSamplesAddr(iter), alvChunkSize*alvSampleBytes)
	grad, macs := p.chunkGradient(weights, raw)
	ctx.Compute(macs * alvInstrMAC)
	// Accumulator expansion: add into this worker's private slot; only the
	// worker's last chunk communicates the reduction array back.
	slotA := p.slotAddr(ctx.PoolIndex())
	var slot []byte
	if iter < uint64(ctx.PoolSize()) {
		slot = make([]byte, alvWeightLen*8) // first chunk: fresh accumulator
	} else {
		slot = ctx.LoadBytes(slotA, alvWeightLen*8)
	}
	slot = accumulate(slot, grad)
	if iter+uint64(ctx.PoolSize()) >= p.chunks {
		ctx.WriteBytesCommit(slotA, slot) // last chunk: commit the reduction array
	} else {
		ctx.StoreBytes(slotA, slot)
	}
	return true
}

// SeqIter accumulates into slot iter%alvSlots; the fixed-point sum makes the
// final reduction identical to any parallel slot arrangement. (alvinn has
// no speculated dependences that can manifest, so this path only serves the
// sequential reference.)
func (p *alvProg) SeqIter(ctx *core.SeqCtx, iter uint64) {
	weights := unpackFloats(ctx.LoadBytes(p.weights, alvWeightLen*8))
	raw := ctx.LoadBytes(p.chunkSamplesAddr(iter), alvChunkSize*alvSampleBytes)
	grad, macs := p.chunkGradient(weights, raw)
	ctx.Compute(macs * alvInstrMAC)
	slotA := p.slotAddr(int(iter % alvSlots))
	slot := ctx.LoadBytes(slotA, alvWeightLen*8)
	ctx.StoreBytes(slotA, accumulate(slot, grad))
}

// Finalize is the end-of-invocation reduction: sum the accumulator slots
// and apply the weight update sequentially on the commit unit.
func (p *alvProg) Finalize(ctx *core.SeqCtx) {
	sum := make([]int64, alvWeightLen)
	for c := 0; c < alvSlots; c++ {
		words := unpackWords(ctx.LoadBytes(p.slotAddr(c), alvWeightLen*8))
		for i, w := range words {
			sum[i] += int64(w)
		}
	}
	ctx.Compute(alvSlots * alvWeightLen)
	weights := unpackFloats(ctx.LoadBytes(p.weights, alvWeightLen*8))
	scale := alvLearnRate / float64(p.chunks*alvChunkSize) / (1 << alvFixShift)
	for i := range weights {
		weights[i] += scale * float64(sum[i])
	}
	ctx.Compute(3 * alvWeightLen)
	ctx.StoreBytes(p.weights, packFloats(weights))
}

func (p *alvProg) Checksum(img *mem.Image) uint64 {
	return img.ChecksumRange(p.weights, alvWeightLen*8)
}
