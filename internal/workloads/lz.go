package workloads

// lzCompress is the real compression kernel behind the 164.gzip workload: a
// greedy LZ77 with a 3-byte hash match finder, emitting a byte-oriented
// token stream (flag 0: literal run; flag 1: back-reference). lzDecompress
// inverts it exactly; tests round-trip every block.

import (
	"encoding/binary"
	"math/bits"
)

const (
	lzHashBits = 12
	lzMinMatch = 4
	lzMaxMatch = 255
	lzMaxDist  = 1 << 15
)

// lzMatchLen returns the longest common prefix (capped at limit) of
// src[c:] and src[i:], comparing eight bytes at a time. Both windows stay
// within src: c < i and i+limit <= len(src).
func lzMatchLen(src []byte, c, i, limit int) int {
	n := 0
	for n+8 <= limit {
		x := binary.LittleEndian.Uint64(src[c+n:]) ^ binary.LittleEndian.Uint64(src[i+n:])
		if x != 0 {
			n += bits.TrailingZeros64(x) >> 3
			return n
		}
		n += 8
	}
	for n < limit && src[c+n] == src[i+n] {
		n++
	}
	return n
}

// lzCompress returns the compressed form of src and the number of match
// probes performed (a faithful work measure for cost charging).
func lzCompress(src []byte) (out []byte, probes int) {
	return lzCompressInto(src, nil)
}

// lzCompressInto is lzCompress writing into buf (grown as needed), so
// callers can recycle the token stream when it is only an intermediate.
//
// probes is part of the vtime cost contract (TestGzipKernelPinned): one
// per hashed position, plus the common-prefix length of every candidate
// inside the window — 0 when its first byte differs.
func lzCompressInto(src, buf []byte) (out []byte, probes int) {
	var table [1 << lzHashBits]int32 // stores position+1; 0 means empty
	// Worst case (incompressible input) is all literal runs: the payload
	// plus a 2-byte header per 255-byte run. Size for that so the stream
	// never regrows mid-block.
	if need := len(src) + len(src)/128 + 16; cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	out = buf[:0]
	litStart := 0
	i := 0
	for i+lzMinMatch <= len(src) {
		// Little-endian v holds b0|b1<<8|b2<<16|b3<<24, so the byte
		// reversal shifted down is the 3-byte key b0<<16|b1<<8|b2.
		v := binary.LittleEndian.Uint32(src[i:])
		h := (bits.ReverseBytes32(v) >> 8) * 2654435761 >> (32 - lzHashBits)
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		probes++
		if cand < 0 || i-cand >= lzMaxDist {
			i++
			continue
		}
		// One XOR tests the candidate's first lzMinMatch bytes; a mismatch
		// costs its common prefix, a full match extends from byte 4 with
		// one probe per matched byte.
		if x := binary.LittleEndian.Uint32(src[cand:]) ^ v; x != 0 {
			probes += bits.TrailingZeros32(x) >> 3
			i++
			continue
		}
		limit := min(len(src)-i, lzMaxMatch)
		length := lzMinMatch + lzMatchLen(src, cand+lzMinMatch, i+lzMinMatch, limit-lzMinMatch)
		probes += length
		out = lzFlushLits(out, src[litStart:i])
		dist := i - cand
		out = append(out, 1, byte(length), byte(dist), byte(dist>>8))
		i += length
		litStart = i
	}
	return lzFlushLits(out, src[litStart:]), probes
}

// lzFlushLits appends lits as literal-run tokens of at most 255 bytes.
func lzFlushLits(out, lits []byte) []byte {
	for len(lits) > 0 {
		n := min(len(lits), 255)
		out = append(out, 0, byte(n))
		out = append(out, lits[:n]...)
		lits = lits[n:]
	}
	return out
}

// lzDecompress inverts lzCompress.
func lzDecompress(comp []byte) []byte {
	var out []byte
	for i := 0; i < len(comp); {
		switch comp[i] {
		case 0:
			n := int(comp[i+1])
			out = append(out, comp[i+2:i+2+n]...)
			i += 2 + n
		case 1:
			length := int(comp[i+1])
			dist := int(comp[i+2]) | int(comp[i+3])<<8
			start := len(out) - dist
			for k := 0; k < length; k++ {
				out = append(out, out[start+k])
			}
			i += 4
		default:
			panic("workloads: corrupt LZ stream")
		}
	}
	return out
}

// mtfRLE is the 256.bzip2 kernel: a move-to-front transform followed by
// run-length encoding and an order-0 frequency table, the core stages of
// bzip2's pipeline after the block sort. mtfRLEInverse inverts it.
func mtfRLE(src []byte) (out []byte, work int) {
	var alphabet [256]byte
	for i := range alphabet {
		alphabet[i] = byte(i)
	}
	mtf := make([]byte, len(src))
	for i, c := range src {
		// Find c's rank and move it to front.
		var r int
		for alphabet[r] != c {
			r++
		}
		work += r + 1
		copy(alphabet[1:r+1], alphabet[:r])
		alphabet[0] = c
		mtf[i] = byte(r)
	}
	// Encode the MTF ranks: zero runs (dominant for compressible data) as
	// 0x00+count, small ranks as single bytes, large ranks escaped — the
	// same zero-run coding bzip2 applies before its entropy coder.
	out = make([]byte, 0, len(src)/2+260)
	for i := 0; i < len(mtf); {
		r := mtf[i]
		if r == 0 {
			j := i
			for j < len(mtf) && mtf[j] == 0 && j-i < 255 {
				j++
			}
			out = append(out, 0x00, byte(j-i))
			i = j
			work += 2
			continue
		}
		if r < 0xF0 {
			out = append(out, r+1) // ranks 1..239 shift up one
		} else {
			out = append(out, 0xFF, r)
		}
		i++
		work++
	}
	return out, work
}

// mtfRLEInverse recovers the original block.
func mtfRLEInverse(comp []byte) []byte {
	var mtf []byte
	for i := 0; i < len(comp); {
		switch {
		case comp[i] == 0x00:
			for k := 0; k < int(comp[i+1]); k++ {
				mtf = append(mtf, 0)
			}
			i += 2
		case comp[i] == 0xFF:
			mtf = append(mtf, comp[i+1])
			i += 2
		default:
			mtf = append(mtf, comp[i]-1)
			i++
		}
	}
	var alphabet [256]byte
	for i := range alphabet {
		alphabet[i] = byte(i)
	}
	out := make([]byte, len(mtf))
	for i, r := range mtf {
		c := alphabet[r]
		copy(alphabet[1:int(r)+1], alphabet[:int(r)])
		alphabet[0] = c
		out[i] = c
	}
	return out
}
