package workloads

// Canonical Huffman coding — the entropy-coding half of 164.gzip's deflate
// (the LZ77 token stream gets bit-packed with an order-0 canonical code).
// The header stores the 256 code lengths plus the payload length; decoding
// rebuilds the canonical code from lengths alone, as deflate does.

import (
	"encoding/binary"
	"math/bits"
)

const (
	huffHeader = 4 + 256 // payload length word + one code length per symbol
	// huffMaxLen bounds code lengths so every code fits a uint32 and a
	// pending 7 bits plus one code fit the 64-bit writer; huffLengths
	// enforces it.
	huffMaxLen = 32
)

// huffEncode compresses b; work counts the operations performed (for cost
// charging): one per input byte plus one per emitted bit. work is part of
// the vtime cost contract (TestGzipKernelPinned). The output is
// self-describing and decoded by huffDecode.
func huffEncode(b []byte) (out []byte, work int64) {
	// Four sub-histograms break the store-to-load dependency chain on
	// repeated bytes; counts are identical to a single-table pass.
	var f0, f1, f2, f3 [256]int
	n := 0
	for ; n+4 <= len(b); n += 4 {
		f0[b[n]]++
		f1[b[n+1]]++
		f2[b[n+2]]++
		f3[b[n+3]]++
	}
	for ; n < len(b); n++ {
		f0[b[n]]++
	}
	var freq [256]int
	for s := range freq {
		freq[s] = f0[s] + f1[s] + f2[s] + f3[s]
	}
	lengths := huffLengths(freq)
	codes := canonicalCodes(lengths)

	// Codes go out MSB-first (prefix decodability), so each table entry
	// holds its code reversed for the LSB-first accumulator — exactly
	// deflate's convention — above an 8-bit length.
	var tab [256]uint64
	var payloadBits int64
	maxLen := byte(0)
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		tab[s] = uint64(bits.Reverse32(codes[s])>>(32-l))<<8 | uint64(l)
		payloadBits += int64(freq[s]) * int64(l)
		maxLen = max(maxLen, l)
	}
	work = int64(len(b)) + payloadBits

	// The payload size is known exactly; 8 bytes of slack let the writer
	// store the whole accumulator at any payload offset.
	size := huffHeader + int((payloadBits+7)/8)
	out = make([]byte, size+8)
	binary.LittleEndian.PutUint32(out, uint32(len(b)))
	copy(out[4:], lengths[:])

	// Branch-free writer: OR codes into the accumulator, store all 8 bytes,
	// advance past the complete ones. At most 7 bits stay pending, so two
	// codes go per store while they fit in 64 bits.
	pos := huffHeader
	var acc, nbits uint64
	k := 0
	if 7+2*int(maxLen) <= 64 {
		for ; k+2 <= len(b); k += 2 {
			e0, e1 := tab[b[k]], tab[b[k+1]]
			acc |= e0 >> 8 << nbits
			nbits += e0 & 0xff
			acc |= e1 >> 8 << nbits
			nbits += e1 & 0xff
			binary.LittleEndian.PutUint64(out[pos:], acc)
			pos += int(nbits >> 3)
			acc >>= nbits &^ 7
			nbits &= 7
		}
	}
	for ; k < len(b); k++ {
		e := tab[b[k]]
		acc |= e >> 8 << nbits
		nbits += e & 0xff
		binary.LittleEndian.PutUint64(out[pos:], acc)
		pos += int(nbits >> 3)
		acc >>= nbits &^ 7
		nbits &= 7
	}
	return out[:size], work
}

// huffDecode inverts huffEncode (test support). It decodes canonically, as
// zlib's puff does: with symbols listed by (length, symbol), a code of
// length l is symbol number code - first[l] among the count[l] codes of
// that length, and first[l+1] = (first[l] + count[l]) << 1.
func huffDecode(comp []byte) []byte {
	n := int(binary.LittleEndian.Uint32(comp))
	lengths := comp[4:huffHeader]
	var count [huffMaxLen + 1]int
	for _, l := range lengths {
		if l > huffMaxLen {
			panic("workloads: corrupt Huffman header")
		}
		count[l]++
	}
	count[0] = 0
	var offs [huffMaxLen + 1]int
	for l := 1; l < huffMaxLen; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var syms [256]byte
	for s, l := range lengths {
		if l != 0 {
			syms[offs[l]] = byte(s)
			offs[l]++
		}
	}

	out := make([]byte, 0, n)
	payload := comp[huffHeader:]
	for i := 0; len(out) < n; {
		code, first, index := 0, 0, 0
		for l := 1; ; l++ {
			if l > huffMaxLen {
				panic("workloads: corrupt Huffman stream")
			}
			code |= int(payload[i>>3]>>(i&7)) & 1 // MSB-first accumulation
			i++
			if code-first < count[l] {
				out = append(out, syms[index+code-first])
				break
			}
			index += count[l]
			first = (first + count[l]) << 1
			code <<= 1
		}
	}
	return out
}

// huffLengths computes code lengths with the classic two-queue Huffman
// construction over the 256-symbol alphabet: leaves sorted once by
// (weight, symbol), merged nodes appended to a second queue in creation
// order (their weights are nondecreasing), so the two lightest live nodes
// are always at the queue fronts. Equal-weight ties prefer the merged
// queue, matching the selection order of a (weight, symbol) comparison
// where merged nodes carry symbol -1. O(n) for the radix sort and the
// merges. A tree deeper than huffMaxLen (only reachable with tens of
// megabytes of Fibonacci-skewed input) is length-limited by huffLimit.
func huffLengths(freq [256]int) [256]byte {
	type node struct {
		weight      int
		sym         int // >= 0 for leaves
		left, right int // indices into nodes, -1 for leaves
	}
	// Sorting packed weight<<8|sym keys is the (weight, symbol) order
	// without a comparator closure. Everything is bounded by the 256-symbol
	// alphabet (at most 511 tree nodes), so all scratch lives on the stack.
	var keyArr [256]uint64
	keys := keyArr[:0]
	for s, f := range freq {
		if f > 0 {
			keys = append(keys, uint64(f)<<8|uint64(s))
		}
	}
	nLeaves := len(keys)
	switch nLeaves {
	case 0:
		return [256]byte{}
	case 1:
		var lengths [256]byte
		lengths[keys[0]&0xff] = 1
		return lengths
	}
	huffSortKeys(keys)
	var nodeArr [511]node
	nodes := nodeArr[:0]
	for _, k := range keys {
		nodes = append(nodes, node{weight: int(k >> 8), sym: int(k & 0xff), left: -1, right: -1})
	}
	var mergedArr [255]int
	merged := mergedArr[:0] // FIFO of merged-node indices
	h1, h2 := 0, 0
	pick := func() int {
		if h2 < len(merged) && (h1 >= nLeaves || nodes[merged[h2]].weight <= nodes[h1].weight) {
			i := merged[h2]
			h2++
			return i
		}
		i := h1
		h1++
		return i
	}
	for range nLeaves - 1 {
		l := pick()
		r := pick()
		nodes = append(nodes, node{weight: nodes[l].weight + nodes[r].weight, sym: -1, left: l, right: r})
		merged = append(merged, len(nodes)-1)
	}
	// Children always precede parents, so one reverse pass propagates
	// depths from the root (the last node) without recursion.
	var lengths [256]byte
	var depthArr [511]byte
	depth := depthArr[:len(nodes)]
	maxLen := byte(0)
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		if n.sym >= 0 {
			lengths[n.sym] = depth[i]
			maxLen = max(maxLen, depth[i])
			continue
		}
		depth[n.left] = depth[i] + 1
		depth[n.right] = depth[i] + 1
	}
	if maxLen > huffMaxLen {
		huffLimit(&lengths, keys, maxLen)
	}
	return lengths
}

// huffSortKeys sorts distinct weight<<8|sym keys that arrive in symbol
// order. The low byte is therefore already sorted, so an LSD radix sort
// needs stable passes over the weight bytes only; distinct keys make the
// result the same as any comparison sort's.
func huffSortKeys(keys []uint64) {
	var tmpArr [256]uint64
	tmp := tmpArr[:len(keys)]
	var all uint64
	for _, k := range keys {
		all |= k
	}
	for shift := uint(8); all>>shift != 0; shift += 8 {
		var start [256]int
		for _, k := range keys {
			start[k>>shift&0xff]++
		}
		sum := 0
		for d, c := range start {
			start[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := k >> shift & 0xff
			tmp[start[d]] = k
			start[d]++
		}
		copy(keys, tmp)
	}
}

// huffLimit rewrites lengths whose deepest code is maxLen > huffMaxLen,
// with JPEG's Adjust_BITS (ITU T.81 Annex K.3) over the per-length counts:
// two leaves leave the deepest level, one takes their parent's place, and
// the deepest shorter leaf becomes a parent of itself and the other. The
// Kraft sum stays 1. Symbols then take the new lengths in weight order,
// lightest (first in the sorted keys) longest.
func huffLimit(lengths *[256]byte, keys []uint64, maxLen byte) {
	var count [256]int
	for _, k := range keys {
		count[lengths[k&0xff]]++
	}
	for l := int(maxLen); l > huffMaxLen; l-- {
		for count[l] > 0 {
			j := l - 2
			for count[j] == 0 {
				j--
			}
			count[l] -= 2
			count[l-1]++
			count[j+1] += 2
			count[j]--
		}
	}
	k := 0
	for l := huffMaxLen; l > 0; l-- {
		for range count[l] {
			lengths[keys[k]&0xff] = byte(l)
			k++
		}
	}
}

// canonicalCodes assigns canonical codes (shorter codes first, then by
// symbol) from lengths with RFC 1951's walk: count the codes of each
// length, derive the first code of each length, then hand codes out in
// symbol order.
func canonicalCodes(lengths [256]byte) [256]uint32 {
	var count, next [huffMaxLen + 1]uint32
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	code := uint32(0)
	for l := 1; l <= huffMaxLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	var codes [256]uint32
	for s, l := range lengths {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}
