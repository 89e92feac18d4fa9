package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// gzKernelBlocks returns n consecutive 164.gzip input blocks for seed.
func gzKernelBlocks(seed uint64, n int) [][]byte {
	data := gzInput(seed, int64(n)*gzBlockBytes)
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = data[i*gzBlockBytes : (i+1)*gzBlockBytes]
	}
	return blocks
}

// gzKernelCorpus is the pinned kernel input set: real gzip blocks from
// three seeds, the corner cases the match finder and the literal flusher
// branch on, and a seeded spread of odd sizes and alphabets.
func gzKernelCorpus() [][]byte {
	var in [][]byte
	for _, seed := range []uint64{1, 2, 3} {
		in = append(in, gzKernelBlocks(seed, 4)...)
	}
	r := newRNG(42)
	random := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.next())
		}
		return b
	}
	lit255, lit256 := random(255), random(256)
	in = append(in, [][]byte{
		nil, {7}, {7, 7}, {7, 7, 7}, {1, 2, 3}, {7, 7, 7, 7}, {7, 7, 7, 7, 7},
		bytes.Repeat([]byte{'a'}, 5000), // 255-byte matches, capped
		random(4096),                    // incompressible: literal runs only
		lit255, lit256, random(257), random(510),
		append(append([]byte{}, lit255...), lit255[:40]...), // a full run, then a match
		append(append([]byte{}, lit256...), lit256[:40]...),
	}...)
	for range 64 {
		n, alpha := r.intn(3000), 1+r.intn(256)
		b := make([]byte, n)
		for i := range b {
			if i > 8 && r.intn(3) == 0 {
				b[i] = b[i-1-r.intn(8)] // near repeats: short and failed matches
			} else {
				b[i] = byte(r.intn(alpha))
			}
		}
		in = append(in, b)
	}
	return in
}

// Recorded from the byte-at-a-time kernel this one replaced; see
// TestGzipKernelPinned.
const (
	gzKernelDigest = "229856b276513dee20d06c82ae5ff49832605752b8b6f890d87c7996aeb6097a"
	gzKernelProbes = 466560
	gzKernelWork   = 4438065
)

// TestGzipKernelPinned pins the 164.gzip kernel's cost contract. probes and
// work are what compress charges through ctx.Compute, so they are the vtime
// cost model, and the Huffman bytes feed every gzip checksum: a kernel
// rewrite must reproduce all of them exactly. The digest covers, per input,
// the LZ token stream, probes, the Huffman encoding of the token stream and
// of the raw input, and both work counts.
func TestGzipKernelPinned(t *testing.T) {
	h := sha256.New()
	word := func(v int64) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v))) }
	chunk := func(b []byte) { word(int64(len(b))); h.Write(b) }
	var probes, work int64
	var buf []byte
	for _, src := range gzKernelCorpus() {
		lz, p := lzCompressInto(src, buf)
		chunk(lz)
		word(int64(p))
		probes += int64(p)
		for _, in := range [][]byte{lz, src} {
			comp, w := huffEncode(in)
			chunk(comp)
			word(w)
			work += w
		}
		buf = lz[:0]
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != gzKernelDigest || probes != gzKernelProbes || work != gzKernelWork {
		t.Fatalf("gzip kernel drifted: digest %s probes %d work %d, pinned %s probes %d work %d",
			got, probes, work, gzKernelDigest, gzKernelProbes, gzKernelWork)
	}
}

// TestLZTokenBoundHoldsWorstCase: alternating 1-byte literals and 4-byte
// matches is the densest token stream, 7 bytes per 5 input bytes, and
// lzCompressInto's presize must hold it without regrowing. The input stays
// out of gzKernelCorpus, so TestGzipKernelPinned's digest does not move.
func TestLZTokenBoundHoldsWorstCase(t *testing.T) {
	// A 256-byte dictionary over bytes 0–127, then groups of one fresh byte
	// from 128–255 (never a match start, and it ends the match before it)
	// and four bytes copied out of the dictionary.
	r := newRNG(5)
	src := make([]byte, 0, 9000+5)
	for range 256 {
		src = append(src, byte(r.intn(128)))
	}
	for len(src) < 9000 {
		p := r.intn(252)
		src = append(append(src, byte(128+r.intn(128))), src[p:p+4]...)
	}
	src = src[:9000]
	out, _ := lzCompressInto(src, nil)
	if old := len(src) + len(src)/128 + 16; len(out) <= old {
		t.Fatalf("%d token bytes fit the incompressible-input presize %d: not a worst case", len(out), old)
	}
	if cap(out) != lzTokenBound(len(src)) {
		t.Fatalf("token stream regrew: cap %d, presize %d (%d token bytes)", cap(out), lzTokenBound(len(src)), len(out))
	}
	if !bytes.Equal(lzDecompress(out), src) {
		t.Fatal("round trip failed")
	}
}

// gzInput returns the n-byte 164.gzip input for seed, through inputCache.
func gzInput(seed uint64, n int64) []byte { return cachedInput(inputKey{gzGen, seed, n}) }

// bytes returns a fresh buffer of n bytes from fill.
func (r *rng) bytes(n int) []byte {
	b := make([]byte, n)
	r.fill(b)
	return b
}

// TestRNGBytesPinned pins the bytes every generated input is made of: per
// length, the SHA-256 of rng.bytes and of gzInput over seeds 0–7. The
// lengths cover the back-reference threshold, the word-copy loop's first
// entry (89 = 65 literals + 24) and one short of it, the 64 KiB gzInput
// chunk and one past it, an odd length with a long tail, and each
// workload's buffer size. Every checksum and golden downstream hangs off
// these bytes, so a faster generator must keep them. Recorded from the
// byte-at-a-time generator rng.fill replaced (88, 89 and 4119 from the
// generator that copied words only when off >= length).
func TestRNGBytesPinned(t *testing.T) {
	pins := []struct {
		n           int
		bytes, gzip string
	}{
		{1, "ab92b34bb2e16026f3130d7914f2c707b21b4e55740b9ce76b61f4932512d2ad", "ab92b34bb2e16026f3130d7914f2c707b21b4e55740b9ce76b61f4932512d2ad"},
		{64, "541e307a4f091b4c0780f77e8b04f95ad56a592079bf228080cf13afae5204c1", "541e307a4f091b4c0780f77e8b04f95ad56a592079bf228080cf13afae5204c1"},
		{65, "6159385388a44da77ee0072125ffc93bafe1f186a3912d187d206e477feb2180", "6159385388a44da77ee0072125ffc93bafe1f186a3912d187d206e477feb2180"},
		{66, "f6e2f063383ce924371e05922d1cd1948d8ce810434b4e37ebb1c2b8d169eb47", "f6e2f063383ce924371e05922d1cd1948d8ce810434b4e37ebb1c2b8d169eb47"},
		{88, "0d95f4c767805c9f82632898da5208b86e40efe24aaf9aa2433777dd4078b837", "0d95f4c767805c9f82632898da5208b86e40efe24aaf9aa2433777dd4078b837"},
		{89, "43f963a7e3e37206cbaa0a2c825a7147f54f1efb9a455d6da12763d9da4c753f", "43f963a7e3e37206cbaa0a2c825a7147f54f1efb9a455d6da12763d9da4c753f"},
		{100, "ba87b5fc81339795e9e458a5ae157f275275038fbeeab115dc5cd51b9e6f0e05", "ba87b5fc81339795e9e458a5ae157f275275038fbeeab115dc5cd51b9e6f0e05"},
		{4119, "9d439f924e0d0742d6cfc3d36f2feab716130787cbb00502ef04f57b4cf53132", "9d439f924e0d0742d6cfc3d36f2feab716130787cbb00502ef04f57b4cf53132"},
		{1 << 16, "c16f07c7efc13cd9a297587e7fceeb5b09e1a82253720c41860869170ccc30e1", "c16f07c7efc13cd9a297587e7fceeb5b09e1a82253720c41860869170ccc30e1"},
		{1<<16 + 7, "fa0148cdf72d823c527aa1e09adf4443fd20abf9753b09bccc9d82b485b55f47", "eaf26481c1b4ce3c0dc9055e18132b94a5ca934979bc54b8e74045ac32b94e42"},
		{gzBlocks * gzBlockBytes, "3973b93834f5ffc86c6654f216cbaf043f93e0e2ff562245e0fea7a86e2a698e", "b8242f9154e401302db9e8cdae8311d202829cfd6787cfcbe61dbaa9ee87d287"},
		{crcFileBytes, "c16f07c7efc13cd9a297587e7fceeb5b09e1a82253720c41860869170ccc30e1", "c16f07c7efc13cd9a297587e7fceeb5b09e1a82253720c41860869170ccc30e1"},
		{bzBlockBytes, "654ecedea36273ea26edc1ae3f5c9db4f77cb503619d5dc094a75c169c674320", "654ecedea36273ea26edc1ae3f5c9db4f77cb503619d5dc094a75c169c674320"},
	}
	for _, p := range pins {
		hb, hg := sha256.New(), sha256.New()
		for seed := range uint64(8) {
			hb.Write(newRNG(seed).bytes(p.n))
			hg.Write(gzInput(seed, int64(p.n)))
		}
		if got := hex.EncodeToString(hb.Sum(nil)); got != p.bytes {
			t.Errorf("rng.bytes(%d) drifted: %s, pinned %s", p.n, got, p.bytes)
		}
		if got := hex.EncodeToString(hg.Sum(nil)); got != p.gzip {
			t.Errorf("gzInput(_, %d) drifted: %s, pinned %s", p.n, got, p.gzip)
		}
	}
}

// BenchmarkGzInput times the generation of one scale-1 164.gzip input per
// op, past inputCache: what a net-loopback job pays on the commit daemon
// for a seed its fleet has not seen.
func BenchmarkGzInput(b *testing.B) {
	const total = gzBlocks * gzBlockBytes
	b.SetBytes(total)
	for i := uint64(0); b.Loop(); i++ {
		gzGenerate(i, total)
	}
}

// BenchmarkGzipKernel times the 164.gzip kernel one 24 KiB block per op,
// cycling through 16 blocks of the benchmark input: compress (the whole
// stage-1 call), lz (the match finder alone) and huffman (the entropy
// coder on the LZ token stream). SetBytes counts input block bytes in
// all three, so their MB/s compare directly.
func BenchmarkGzipKernel(b *testing.B) {
	blocks := gzKernelBlocks(1, 16)
	tokens := make([][]byte, len(blocks))
	for i, blk := range blocks {
		tokens[i], _ = lzCompress(blk)
	}
	b.Run("compress", func(b *testing.B) {
		p := &gzProg{}
		b.SetBytes(gzBlockBytes)
		for i := 0; b.Loop(); i++ {
			p.compress(blocks[i%len(blocks)])
		}
	})
	b.Run("lz", func(b *testing.B) {
		var buf []byte
		b.SetBytes(gzBlockBytes)
		for i := 0; b.Loop(); i++ {
			lz, _ := lzCompressInto(blocks[i%len(blocks)], buf)
			buf = lz[:0]
		}
	})
	b.Run("huffman", func(b *testing.B) {
		b.SetBytes(gzBlockBytes)
		for i := 0; b.Loop(); i++ {
			huffEncode(tokens[i%len(tokens)])
		}
	})
}

// BenchmarkCRC32Kernel times crc32sum one 64 KiB crc32 input file per op,
// cycling through four files.
func BenchmarkCRC32Kernel(b *testing.B) {
	files := make([][]byte, 4)
	for i := range files {
		files[i] = newRNG(mix(1, uint64(i))).bytes(crcFileBytes)
	}
	b.SetBytes(crcFileBytes)
	for i := 0; b.Loop(); i++ {
		crc32sum(files[i%len(files)])
	}
}
