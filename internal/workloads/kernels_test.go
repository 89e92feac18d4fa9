package workloads

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/sim"
	"dsmtx/internal/uva"
)

// Kernel-level unit tests: each benchmark's computational heart, exercised
// directly (the runtime-level equivalence tests live in workloads_test.go).

// seqSetup runs a program's Setup against a fresh image, for direct kernel
// access.
func seqSetup(t *testing.T, prog Program) *mem.Image {
	t.Helper()
	cfg := coreDefaultFor(prog)
	elapsed, img, err := core.RunSequential(cfg, prog, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed < 0 {
		t.Fatal("negative time")
	}
	return img
}

func TestSwaptionsPriceProperties(t *testing.T) {
	p := newSwnProg(DefaultInput())
	// Invalid parameters take the error path.
	if _, bad := p.price(-0.01, 5, 1, 7); !bad {
		t.Fatal("negative strike accepted")
	}
	if _, bad := p.price(0.05, -1, 1, 7); !bad {
		t.Fatal("negative maturity accepted")
	}
	// Prices are finite, non-negative, and deterministic in the seed.
	f := func(seed uint64, k uint8) bool {
		strike := 0.02 + float64(k%50)/1000
		a, bad1 := p.price(strike, 5, 2, seed)
		b, bad2 := p.price(strike, 5, 2, seed)
		return !bad1 && !bad2 && a == b && a >= 0 && !math.IsNaN(a) && !math.IsInf(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
	// A deeper out-of-the-money strike cannot cost more.
	lo, _ := p.price(0.02, 5, 2, 99)
	hi, _ := p.price(0.09, 5, 2, 99)
	if hi > lo {
		t.Fatalf("price(strike=.09)=%v > price(strike=.02)=%v", hi, lo)
	}
}

func TestH264SADProperties(t *testing.T) {
	cur := make([]byte, h264FrameBytes)
	ref := make([]byte, h264FrameBytes)
	for i := range cur {
		cur[i] = byte(i % 200) // stay clear of byte overflow for the shift test
		ref[i] = cur[i]
	}
	// Identical frames: zero SAD at zero displacement.
	if s, ok := sad(cur, ref, 16, 16, 0, 0); !ok || s != 0 {
		t.Fatalf("sad(identical) = %d, %v", s, ok)
	}
	// Out-of-frame displacements are rejected.
	if _, ok := sad(cur, ref, 0, 0, -1, 0); ok {
		t.Fatal("out-of-frame candidate accepted")
	}
	// A uniform brightness shift of d over the block gives SAD 256*d.
	for i := range ref {
		ref[i] = cur[i] + 3
	}
	if s, _ := sad(cur, ref, 16, 16, 0, 0); s != 3*h264MB*h264MB {
		t.Fatalf("sad(shift 3) = %d, want %d", s, 3*h264MB*h264MB)
	}
}

func TestH264EncodeDeterministicAndMoving(t *testing.T) {
	p := newH264Prog(DefaultInput(), false)
	img := seqSetup(t, p)
	gop := img.LoadBytes(p.gopAddr(3), h264Frames*h264FrameBytes)
	a, ops1 := p.encodeGoP(gop, 3)
	b, ops2 := p.encodeGoP(gop, 3)
	if !bytes.Equal(a, b) || ops1 != ops2 {
		t.Fatal("encode not deterministic")
	}
	if ops1 == 0 || len(a) < 10 {
		t.Fatalf("suspicious encode: %d ops, %d bytes", ops1, len(a))
	}
	// The drifting gradient must yield at least one nonzero motion vector.
	nonzero := false
	for i := 1; i+3 < len(a); i += 4 {
		if a[i] != h264Search || a[i+1] != h264Search {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("no motion found in drifting synthetic video")
	}
}

func TestParserParseBehaviour(t *testing.T) {
	p := newParProg(DefaultInput(), false)
	img := seqSetup(t, p)
	var rec parRecord
	var words [parMaxWords]uint64
	img.LoadBytesInto(rec[:], p.sentAddr(3))
	sentence := rec.words(&words)
	if len(sentence) < 12 || len(sentence) > parMaxWords {
		t.Fatalf("sentence length %d", len(sentence))
	}
	lookup := func(idx uint64) parEntry {
		var b parBucket
		img.LoadBytesInto(b[:], p.bucketAddr(idx))
		return b.entry(idx)
	}
	cost, passes, errPath := p.parse(lookup, sentence, 3)
	if errPath {
		t.Fatal("normal sentence took the error path")
	}
	if passes < 1 || passes > 8 {
		t.Fatalf("passes = %d", passes)
	}
	// Unknown words (out-of-dictionary) hit the error path.
	if _, _, err2 := p.parse(lookup, []uint64{1 << 40}, 3); !err2 {
		t.Fatal("unknown word not flagged")
	}
	// More permissive options cannot fail where stricter ones succeeded,
	// and parsing is deterministic.
	cost2, passes2, _ := p.parse(lookup, sentence, 3)
	if cost != cost2 || passes != passes2 {
		t.Fatal("parse not deterministic")
	}
	_, passesLoose, _ := p.parse(lookup, sentence, 0xff)
	if passesLoose > passes {
		t.Fatalf("looser options needed more passes (%d > %d)", passesLoose, passes)
	}
}

func TestAlvinnGradientDirection(t *testing.T) {
	p := newAlvProg(DefaultInput(), 0)
	img := seqSetup(t, p)
	weights := unpackFloats(img.LoadBytes(p.weights, alvWeightLen*8))
	raw := img.LoadBytes(p.chunkSamplesAddr(0), alvChunkSize*alvSampleBytes)
	grad, macs := p.chunkGradient(weights, raw)
	if macs == 0 {
		t.Fatal("no work counted")
	}
	// Applying a small step along the gradient must reduce the squared
	// error on the chunk (it is the gradient of -error).
	errOf := func(w []float64) float64 {
		g := &alvProg{}
		_ = g
		var total float64
		samples := make([]float64, len(raw))
		for i, b := range raw {
			samples[i] = float64(b) / 255
			if i%alvSampleBytes >= alvIn {
				samples[i] = float64(b)
			}
		}
		w1 := w[:alvIn*alvHid]
		w2 := w[alvIn*alvHid:]
		for s := 0; s < alvChunkSize; s++ {
			in := samples[s*alvSampleBytes : s*alvSampleBytes+alvIn]
			target := samples[s*alvSampleBytes+alvIn : (s+1)*alvSampleBytes]
			var hid [alvHid]float64
			for h := 0; h < alvHid; h++ {
				var sum float64
				for i := 0; i < alvIn; i++ {
					sum += in[i] * w1[i*alvHid+h]
				}
				hid[h] = sigmoid(sum)
			}
			for o := 0; o < alvOut; o++ {
				var sum float64
				for h := 0; h < alvHid; h++ {
					sum += hid[h] * w2[h*alvOut+o]
				}
				d := target[o] - sigmoid(sum)
				total += d * d
			}
		}
		return total
	}
	before := errOf(weights)
	stepped := make([]float64, len(weights))
	for i := range weights {
		stepped[i] = weights[i] + 0.01*float64(grad[i])/(1<<alvFixShift)
	}
	after := errOf(stepped)
	if after >= before {
		t.Fatalf("gradient step increased error: %v -> %v", before, after)
	}
}

func TestAlvinnAccumulateExact(t *testing.T) {
	slot := make([]byte, alvWeightLen*8)
	g1 := make([]int64, alvWeightLen)
	g2 := make([]int64, alvWeightLen)
	for i := range g1 {
		g1[i] = int64(i) - 800
		g2[i] = int64(i * i % 977)
	}
	slot = accumulate(accumulate(slot, g1), g2)
	words := unpackWords(slot)
	for i := range g1 {
		if int64(words[i]) != g1[i]+g2[i] {
			t.Fatalf("slot[%d] = %d, want %d", i, int64(words[i]), g1[i]+g2[i])
		}
	}
}

func TestArtClassifyDeterministicAndValid(t *testing.T) {
	p := newArtProg(DefaultInput(), false)
	img := seqSetup(t, p)
	weights := unpackFloats(img.LoadBytes(p.weights, artCats*artDims*8))
	for w := uint64(0); w < 10; w++ {
		win := unpackFloats(img.LoadBytes(p.windowAddr(w), artDims*8))
		c1, m1 := classify(win, weights)
		c2, m2 := classify(win, weights)
		if c1 != c2 || m1 != m2 {
			t.Fatal("classify not deterministic")
		}
		if c1 < 0 || c1 >= artCats {
			t.Fatalf("category %d out of range", c1)
		}
	}
}

func TestHmmerScoreBatchShape(t *testing.T) {
	p := newHmmProg(DefaultInput(), false)
	img := seqSetup(t, p)
	emit, trans := p.tables(func(a uva.Addr, n int) []byte { return img.LoadBytes(a, n) })
	if len(emit) != hmmStates*hmmAlphabet || len(trans) != hmmStates*3 {
		t.Fatalf("table sizes %d/%d", len(emit), len(trans))
	}
	batch := img.LoadBytes(p.batchAddr(0), hmmSeqsPerBatch*hmmSeqLen)
	scores, maxScore := p.scoreBatch(batch, emit, trans)
	if len(scores) != hmmSeqsPerBatch {
		t.Fatalf("%d scores", len(scores))
	}
	var expectMax uint64
	for _, s := range scores {
		if s > expectMax {
			expectMax = s
		}
	}
	if maxScore != expectMax {
		t.Fatalf("maxScore %d != max(scores) %d", maxScore, expectMax)
	}
}

func TestGzipCompressionRatioSane(t *testing.T) {
	p := newGzProg(DefaultInput(), false)
	img := seqSetup(t, p)
	block := img.LoadBytes(p.input, gzBlockBytes)
	comp, instr := p.compress(block)
	if len(comp) >= gzBlockBytes {
		t.Fatalf("text-like block expanded: %d -> %d", gzBlockBytes, len(comp))
	}
	if instr == 0 {
		t.Fatal("no work charged")
	}
	if got := lzDecompress(huffDecode(comp)); !bytes.Equal(got, block) {
		t.Fatal("round trip failed")
	}
}

// TestGzInputMemoBounded: the input memo retains at most its budget, a hit
// is the stored buffer, and an evicted input regenerates byte-identically.
func TestGzInputMemoBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 3 x 128 MiB")
	}
	const half = inputBudget/2 + 1 // two of these do not fit together
	first := gzInput(901, half)
	if hit := gzInput(901, half); &hit[0] != &first[0] {
		t.Fatal("second request for a memoized input generated it again")
	}
	gzInput(902, half)
	inputCache.Lock()
	var held int64
	for _, e := range inputCache.entries {
		held += int64(len(e.data))
	}
	accounted := inputCache.bytes
	inputCache.Unlock()
	if held > inputBudget || held != accounted {
		t.Fatalf("memo holds %d bytes (accounted %d), budget %d", held, accounted, inputBudget)
	}
	again := gzInput(901, half)
	if &again[0] == &first[0] {
		t.Fatal("oldest input still memoized after the budget was exceeded")
	}
	if !bytes.Equal(again, first) {
		t.Fatal("regenerated input differs from its first generation")
	}
}

func TestBzip2CompressionRatioSane(t *testing.T) {
	p := newBzProg(DefaultInput(), false)
	img := seqSetup(t, p)
	block := img.LoadBytes(p.blockAddr(1), bzBlockBytes)
	comp, instr, errPath := p.compress(block)
	if errPath {
		t.Fatal("normal block took the error path")
	}
	if len(comp) >= bzBlockBytes {
		t.Fatalf("text-like block expanded: %d -> %d", bzBlockBytes, len(comp))
	}
	if instr == 0 {
		t.Fatal("no work charged")
	}
	if got := mtfRLEInverse(comp); !bytes.Equal(got, block) {
		t.Fatal("round trip failed")
	}
}

func TestCRCCorruptHeaderPath(t *testing.T) {
	p := newCRCProg(Input{Scale: 1, Seed: 1, MisspecRate: 0.05}, false)
	if len(p.corrupt) == 0 {
		t.Fatal("no corrupt files at 5% rate")
	}
	img := seqSetup(t, p)
	var iter uint64
	for k := range p.corrupt {
		iter = k
		break
	}
	data := img.LoadBytes(p.fileAddr(iter), crcFileBytes)
	if _, ok := p.checkFile(data); ok {
		t.Fatal("corrupt file passed the check")
	}
}

func TestBSChunkPageAlignment(t *testing.T) {
	// bsOptsPerChunk is chosen so one chunk's prices fill whole pages; the
	// commit path depends on it for write-allocate bypass.
	if (bsOptsPerChunk*8)%uva.PageSize != 0 {
		t.Fatalf("chunk price block %d bytes is not page-multiple", bsOptsPerChunk*8)
	}
}

func TestSeqCtxCostsCharged(t *testing.T) {
	// Sequential references must charge time for their work: a benchmark
	// with zero sequential time would produce infinite speedups.
	for _, b := range All() {
		prog := b.NewDSMTX(Input{Scale: 1, Seed: 3}, 0)
		elapsed, _, err := core.RunSequential(coreDefaultFor(prog), prog, min64(prog.Iterations(), 3), nil)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if elapsed <= sim.Time(0) {
			t.Errorf("%s: sequential run charged no time", b.Name)
		}
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
