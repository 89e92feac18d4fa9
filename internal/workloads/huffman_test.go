package workloads

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func TestHuffmanRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{7, 7, 7, 7},
		[]byte("the quick brown fox jumps over the lazy dog"),
		bytes.Repeat([]byte("ab"), 5000),
		newRNG(5).bytes(30000),
	}
	for i, src := range cases {
		comp, work := huffEncode(src)
		if len(src) > 0 && work == 0 {
			t.Errorf("case %d: no work counted", i)
		}
		got := huffDecode(comp)
		if !bytes.Equal(got, src) {
			t.Fatalf("case %d: round trip failed (%d -> %d -> %d bytes)", i, len(src), len(comp), len(got))
		}
	}
}

func TestHuffmanCompressesSkewedInput(t *testing.T) {
	// 90% one symbol: entropy << 8 bits/symbol, so the stream must shrink
	// well below raw size despite the 260-byte header.
	src := make([]byte, 20000)
	r := newRNG(9)
	for i := range src {
		if r.intn(10) != 0 {
			src[i] = 'e'
		} else {
			src[i] = byte('a' + r.intn(20))
		}
	}
	comp, _ := huffEncode(src)
	if len(comp) > len(src)/2 {
		t.Fatalf("skewed input compressed to %d/%d", len(comp), len(src))
	}
}

func TestHuffmanCanonicalProperty(t *testing.T) {
	// Kraft equality for the constructed lengths, and decodability for any
	// payload.
	f := func(data []byte) bool {
		comp, _ := huffEncode(data)
		return bytes.Equal(huffDecode(comp), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// fibFreq gives symbols 0..n-1 Fibonacci frequencies 1, 1, 2, 3, 5, …:
// the skew that makes the Huffman tree a path, n-1 codes deep.
func fibFreq(n int) [256]int {
	var freq [256]int
	a, b := 1, 1
	for s := range n {
		freq[s] = a
		a, b = b, a+b
	}
	return freq
}

// kraftSum checks that every used symbol has a code and returns Σ 2^-len.
func kraftSum(t *testing.T, freq [256]int, lengths [256]byte) float64 {
	t.Helper()
	sum := 0.0
	for s, l := range lengths {
		if freq[s] > 0 && l == 0 {
			t.Fatalf("symbol %d has frequency but no code", s)
		}
		if l > 0 {
			sum += 1 / float64(uint64(1)<<l)
		}
	}
	return sum
}

// TestHuffmanLengthLimit: 35 Fibonacci symbols (24 MB of input) build a
// 34-deep tree, past the 32-bit codes the encoder and decoder carry. The
// limited lengths must stay a complete prefix code that never gives a
// lighter symbol a shorter code.
func TestHuffmanLengthLimit(t *testing.T) {
	freq := fibFreq(35)
	lengths := huffLengths(freq)
	maxLen := byte(0)
	for s := range 35 {
		maxLen = max(maxLen, lengths[s])
		if s > 0 && freq[s] > freq[s-1] && lengths[s] > lengths[s-1] {
			t.Fatalf("symbol %d (weight %d) got %d bits, lighter symbol %d got %d",
				s, freq[s], lengths[s], s-1, lengths[s-1])
		}
	}
	if maxLen > huffMaxLen {
		t.Fatalf("max code length %d > %d", maxLen, huffMaxLen)
	}
	if sum := kraftSum(t, freq, lengths); sum > 1 {
		t.Fatalf("Kraft sum %v > 1: not a prefix code", sum)
	}
}

// TestHuffmanDeepCodesRoundTrip: 30 Fibonacci symbols (2.2 MB) reach a
// 29-bit code, past the 28 bits at which the writer still packs two codes
// per store, so this covers its one-code-per-store path. The two 29-bit
// codes sit side by side where the writer would start a pair with 7 bits
// pending: 65 bits, which no single 64-bit store holds.
func TestHuffmanDeepCodesRoundTrip(t *testing.T) {
	freq := fibFreq(30)
	lengths := huffLengths(freq)
	if lengths[0] != 29 || lengths[1] != 29 || slices.Max(lengths[:]) != 29 {
		t.Fatalf("rarest symbols got %d and %d bits, longest code %d; want 29",
			lengths[0], lengths[1], slices.Max(lengths[:]))
	}
	var body []byte
	for s := 2; s < 30; s++ {
		body = append(body, bytes.Repeat([]byte{byte(s)}, freq[s])...)
	}
	r := newRNG(17)
	for i := len(body) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		body[i], body[j] = body[j], body[i]
	}
	k, pending := 0, 0
	for k%2 != 0 || pending%8 != 7 {
		pending += int(lengths[body[k]])
		k++
	}
	src := slices.Concat(body[:k], []byte{0, 1}, body[k:])
	comp, _ := huffEncode(src)
	if !bytes.Equal(huffDecode(comp), src) {
		t.Fatal("deep-code round trip failed")
	}
}

func TestHuffmanKraftInequality(t *testing.T) {
	var freq [256]int
	r := newRNG(3)
	for i := 0; i < 150; i++ {
		freq[r.intn(256)] += 1 + r.intn(1000)
	}
	if sum := kraftSum(t, freq, huffLengths(freq)); sum > 1.0000001 {
		t.Fatalf("Kraft sum %v > 1: not a prefix code", sum)
	}
}
