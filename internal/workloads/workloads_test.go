package workloads

import (
	"bytes"
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/platform"
)

func coreDefaultFor(prog Program) core.Config {
	return core.DefaultConfig(prog.Plan().MinWorkers()+2, prog.Plan())
}

func coreRunSeq(cfg core.Config, prog Program) (platform.Time, *mem.Image, error) {
	return core.RunSequential(cfg, prog, prog.Iterations(), nil)
}

// small shrinks a benchmark input so correctness tests stay fast; Scale=1
// is exercised by the benchmark harness.
func small() Input { return Input{Scale: 1, Seed: 42} }

// checkAgainstSequential verifies that a parallel execution commits exactly
// the sequential program's output.
func checkAgainstSequential(t *testing.T, b *Benchmark, in Input, paradigm Paradigm, cores int) Result {
	t.Helper()
	seqTime, seqCheck, err := RunSequentialRef(b, in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunParallel(b, in, paradigm, cores, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != seqCheck {
		t.Fatalf("%s/%s@%d: checksum %#x != sequential %#x (misspecs=%d)",
			b.Name, paradigm, cores, res.Checksum, seqCheck, res.Misspecs)
	}
	if res.Elapsed <= 0 || seqTime <= 0 {
		t.Fatalf("%s/%s@%d: non-positive time", b.Name, paradigm, cores)
	}
	return res
}

func TestAllBenchmarksMatchSequentialDSMTX(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size correctness sweep")
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			checkAgainstSequential(t, b, small(), DSMTX, 11)
		})
	}
}

func TestAllBenchmarksMatchSequentialTLS(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size correctness sweep")
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			checkAgainstSequential(t, b, small(), TLS, 8)
		})
	}
}

func TestMisspeculatingInputsStillCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("misspeculation sweep")
	}
	in := small()
	in.MisspecRate = 0.005 // well above the paper's 0.1% to force recoveries
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			res := checkAgainstSequential(t, b, in, DSMTX, 10)
			switch b.Name {
			case "052.alvinn", "179.art", "456.hmmer", "464.h264ref", "164.gzip":
				// No input-dependent misspeculation (the paper excludes
				// these from the recovery study).
			default:
				if res.Misspecs == 0 {
					t.Errorf("%s: expected misspeculations at rate 0.005", b.Name)
				}
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("registry has %d benchmarks, want 11", len(all))
	}
	seen := map[string]bool{}
	for _, b := range all {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %s", b.Name)
		}
		seen[b.Name] = true
		if b.Paradigm() == "" || b.SpecTypes == "" || b.Suite == "" {
			t.Errorf("%s: incomplete Table 2 metadata: %+v", b.Name, b)
		}
		if _, err := ByName(b.Name); err != nil {
			t.Errorf("ByName(%s): %v", b.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted an unknown benchmark")
	}
}

func TestLZRoundTrip(t *testing.T) {
	r := newRNG(7)
	for _, n := range []int{0, 1, 5, 100, 4096, 40000} {
		src := r.bytes(n)
		comp, probes := lzCompress(src)
		if n > 1000 && probes == 0 {
			t.Error("no probes counted")
		}
		if got := lzDecompress(comp); !bytes.Equal(got, src) {
			t.Fatalf("LZ round-trip failed at n=%d", n)
		}
	}
}

func TestLZCompresses(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 1000)
	comp, _ := lzCompress(src)
	if len(comp) >= len(src)/4 {
		t.Fatalf("repetitive input compressed to %d/%d", len(comp), len(src))
	}
}

func TestMTFRLERoundTrip(t *testing.T) {
	r := newRNG(9)
	for _, n := range []int{0, 1, 64, 5000} {
		src := r.bytes(n)
		comp, work := mtfRLE(src)
		if n > 100 && work == 0 {
			t.Error("no work counted")
		}
		if got := mtfRLEInverse(comp); !bytes.Equal(got, src) {
			t.Fatalf("MTF/RLE round-trip failed at n=%d", n)
		}
	}
}

func TestLispInterpreter(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"(+ 1 2)", 3},
		{"(* 6 7)", 42},
		{"(if (< 1 2) 10 20)", 10},
		{"(define (sq x) (* x x)) (sq 9)", 81},
		{"(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 10)", 55},
		{"(define (sum n acc) (if (= n 0) acc (sum (- n 1) (+ acc n)))) (sum 10 0)", 55},
	}
	p := &liProg{}
	for _, c := range cases {
		got, steps := p.interpret(c.src, liEnv{})
		if got != c.want {
			t.Errorf("%s = %d, want %d", c.src, got, c.want)
		}
		if steps == 0 {
			t.Errorf("%s: no steps counted", c.src)
		}
	}
}

func TestLispGlobalAndExit(t *testing.T) {
	g := int64(5)
	exited := false
	env := liEnv{
		getG: func() int64 { return g },
		setG: func(v int64) { g = v },
		exit: func() { exited = true },
	}
	p := &liProg{}
	if got, _ := p.interpret("(+ g 1)", env); got != 6 {
		t.Fatalf("(+ g 1) = %d", got)
	}
	p.interpret("(set! g 100)", env)
	if g != 100 {
		t.Fatalf("set! left g = %d", g)
	}
	p.interpret("(exit)", env)
	if !exited {
		t.Fatal("(exit) not routed to env")
	}
}

func TestCRCKernel(t *testing.T) {
	// CRC-32 of "123456789" is the classic check value 0xCBF43926.
	if got := crc32sum([]byte("123456789")); got != 0xCBF43926 {
		t.Fatalf("crc32 check value = %#x", got)
	}
}

// crcTable is the IEEE CRC-32 table of the byte-at-a-time software CRC
// crc32sum replaced; tableCRC32 is that loop, the oracle crc32sum must match.
var crcTable = func() [256]uint32 {
	var t [256]uint32
	for i := range t {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = 0xedb88320 ^ (c >> 1)
			} else {
				c >>= 1
			}
		}
		t[i] = c
	}
	return t
}()

func tableCRC32(b []byte) uint32 {
	c := ^uint32(0)
	for _, x := range b {
		c = crcTable[byte(c)^x] ^ (c >> 8)
	}
	return ^c
}

// TestCRC32MatchesTable pins crc32sum to the table loop: every length
// 0–4096 of seeded random bytes, and three crc32 input files, one carrying
// the corrupt-header marker.
func TestCRC32MatchesTable(t *testing.T) {
	r := newRNG(7)
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(r.next())
	}
	for n := 0; n <= len(buf); n++ {
		if got, want := crc32sum(buf[:n]), tableCRC32(buf[:n]); got != want {
			t.Fatalf("length %d: crc32sum %#x, table %#x", n, got, want)
		}
	}
	for i := range uint64(3) {
		file := newRNG(mix(42, i)).bytes(crcFileBytes)
		if i == 1 {
			file[0] = 0xFF
		}
		if got, want := crc32sum(file), tableCRC32(file); got != want {
			t.Fatalf("file %d: crc32sum %#x, table %#x", i, got, want)
		}
	}
}

func TestBlackScholesKnownValue(t *testing.T) {
	// Standard textbook case: S=100 K=100 r=5% v=20% T=1 call ≈ 10.45.
	v := blackScholes(100, 100, 0.05, 0.2, 1, true)
	if v < 10.2 || v < 0 || v > 10.7 {
		t.Fatalf("call price = %v, want ~10.45", v)
	}
	put := blackScholes(100, 100, 0.05, 0.2, 1, false)
	if put < 5.3 || put > 5.9 {
		t.Fatalf("put price = %v, want ~5.57 (put-call parity)", put)
	}
}

func TestViterbiMonotonicity(t *testing.T) {
	r := newRNG(3)
	emit := make([]uint64, hmmStates*hmmAlphabet)
	trans := make([]uint64, hmmStates*3)
	for i := range emit {
		emit[i] = uint64(r.intn(17))
	}
	seq := make([]byte, hmmSeqLen)
	for i := range seq {
		seq[i] = byte(r.intn(hmmAlphabet))
	}
	base := viterbi(seq, emit, trans)
	if base == 0 {
		t.Fatal("viterbi scored 0 for a scoreable sequence")
	}
	// Raising every emission score cannot lower the best path score.
	for i := range emit {
		emit[i] += 5
	}
	if higher := viterbi(seq, emit, trans); higher <= base {
		t.Fatalf("score %d not above base %d after raising emissions", higher, base)
	}
}

func TestClassifyImbalance(t *testing.T) {
	r := newRNG(11)
	weights := make([]float64, artCats*artDims)
	for i := range weights {
		weights[i] = r.float()
	}
	// A window equal to a prototype resonates immediately…
	easy := make([]float64, artDims)
	copy(easy, weights[:artDims])
	_, easyMacs := classify(easy, weights)
	// …while an adversarial window churns through feedback passes.
	hard := make([]float64, artDims)
	for i := range hard {
		hard[i] = float64(i % 2)
	}
	_, hardMacs := classify(hard, weights)
	if hardMacs <= easyMacs {
		t.Fatalf("no imbalance: easy=%d hard=%d macs", easyMacs, hardMacs)
	}
}

func TestGzipDecompressesToInput(t *testing.T) {
	if testing.Short() {
		t.Skip("compression round-trip through the runtime")
	}
	b := Gzip()
	in := small()
	res, err := RunParallel(b, in, DSMTX, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Round-trip: run sequentially, decompress committed output, compare
	// with the generated input.
	prog := b.NewDSMTX(in, 0).(*gzProg)
	cfg := coreDefaultFor(prog)
	_, img, err := coreRunSeq(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	got := prog.decompressAll(img)
	want := img.LoadBytes(prog.input, int(prog.blocks)*gzBlockBytes)
	if !bytes.Equal(got, want) {
		t.Fatal("gzip output does not decompress to the input")
	}
}

func TestBzip2DecompressesToInput(t *testing.T) {
	if testing.Short() {
		t.Skip("compression round-trip through the runtime")
	}
	prog := Bzip2().NewDSMTX(small(), 0).(*bzProg)
	cfg := coreDefaultFor(prog)
	_, img, err := coreRunSeq(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	got := prog.decompressAll(img)
	want := img.LoadBytes(prog.input, int(prog.blocks)*bzBlockBytes)
	if !bytes.Equal(got, want) {
		t.Fatal("bzip2 output does not decompress to the input")
	}
}

func TestMisspecSet(t *testing.T) {
	s := misspecSet(1000, 0.01, 1)
	if len(s) != 10 {
		t.Fatalf("misspecSet(1000, 1%%) picked %d", len(s))
	}
	if len(misspecSet(1000, 0, 1)) != 0 {
		t.Fatal("zero rate produced misspecs")
	}
	if len(misspecSet(1000, 0.0001, 1)) != 1 {
		t.Fatal("tiny rate should round up to one")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := newRNG(5), newRNG(5)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng nondeterministic")
		}
	}
}
