package workloads

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"unsafe"

	"dsmtx/internal/mem"
	"dsmtx/internal/uva"
)

// inputGen names the generator of a workload's input file.
type inputGen uint8

const (
	gzGen  inputGen = iota // 164.gzip: one rng stream, 64 KiB chunks
	crcGen                 // crc32: one rng per 64 KiB file
	bzGen                  // 256.bzip2: one rng per 16 KiB block
)

// inputKey identifies a generated input: its generator, seed and length.
// The misspeculation rate is not part of it, so cached frames never carry a
// corrupt-file marker: a Setup stores its markers into the image after
// mapping the input in, and each marker's store copies its page.
type inputKey struct {
	gen  inputGen
	seed uint64
	n    int64
}

// generate builds the input k names as page frames, zero past n. Each
// generator fills its input in pieces (rng.fill back-references only within
// a call, so the pieces are part of the input's definition, and
// TestRNGBytesPinned pins the bytes): 164.gzip one rng stream in 64 KiB
// chunks, crc32 and 256.bzip2 one file of size bytes at a time, file i from
// its own rng seeded mix(seed, i*stride). rng.fill writes each piece
// straight into the frames, through a byte view of their one backing array.
func (k inputKey) generate() []*mem.Page {
	size, stride := int64(1<<16), uint64(0) // gzGen: one stream
	switch k.gen {
	case crcGen:
		size, stride = crcFileBytes, 1
	case bzGen:
		size, stride = bzBlockBytes, 31
	}
	pages := make([]mem.Page, (k.n+uva.PageSize-1)/uva.PageSize)
	frames := make([]*mem.Page, len(pages))
	for i := range pages {
		frames[i] = &pages[i]
	}
	view := unsafe.Slice((*byte)(unsafe.Pointer(&pages[0])), k.n)
	r := newRNG(k.seed)
	for i, off := uint64(0), int64(0); off < k.n; i, off = i+1, off+size {
		if stride != 0 {
			r = newRNG(mix(k.seed, i*stride))
		}
		r.fill(view[off:min(off+size, k.n)])
	}
	if !littleEndian {
		// mem keeps byte j of a page in word j>>3 at bit (j&7)*8.
		for i := range pages {
			for j, w := range pages[i].Words {
				pages[i].Words[j] = bits.ReverseBytes64(w)
			}
		}
	}
	return frames
}

// littleEndian reports whether a word's memory holds its low byte first,
// as mem's page layout does.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// inputCache memoizes generated inputs as page frames that every Setup
// reading the input maps copy-on-write (mem.Space.MapPages): benchmark
// sweeps re-run Setup for every (workers, rate) point over the same input,
// a verify job's sequential reference and parallel run read the same one,
// and pushing megabytes through the rng dominates Setup's host cost. Host-
// parallel sweeps and a serving engine hit it from many goroutines at
// once: stored frames are never mutated after insertion, and an image
// copies a frame before its first store to it. It holds at most
// inputBudget bytes, oldest entry out first, and a caching engine drops a
// job's input once the job's result is cached (DropInput), so a long-lived
// server fed fresh seeds keeps no input it will not read again.
var inputCache struct {
	sync.Mutex
	entries []inputEntry // oldest first
	bytes   int64
}

// inputBudget fits every reuse pattern in the repo with room to spare: a
// sweep's inputs, a verify job's seq + parallel pair, and the benchmark's
// 8 cycling seeds of 24 MB.
const inputBudget = 256 << 20

type inputEntry struct {
	key    inputKey
	frames []*mem.Page
}

// lookupInput finds a memoized input. The caller holds the lock.
func lookupInput(k inputKey) (int, bool) {
	for i, e := range inputCache.entries {
		if e.key == k {
			return i, true
		}
	}
	return 0, false
}

// removeInput deletes entry i, clearing the vacated slot so the backing
// array does not keep its frames alive. The caller holds the lock.
func removeInput(i int) {
	c := &inputCache
	c.bytes -= c.entries[i].key.n
	last := len(c.entries) - 1
	copy(c.entries[i:], c.entries[i+1:])
	c.entries[last] = inputEntry{}
	c.entries = c.entries[:last]
}

// inputFrames returns the frames of the input k names, from inputCache
// when it holds them. The caller must not modify them.
func inputFrames(k inputKey) []*mem.Page {
	c := &inputCache
	c.Lock()
	if i, ok := lookupInput(k); ok {
		frames := c.entries[i].frames
		c.Unlock()
		return frames
	}
	c.Unlock()
	frames := k.generate()
	if k.n > inputBudget {
		return frames
	}
	c.Lock()
	defer c.Unlock()
	if i, ok := lookupInput(k); ok {
		return c.entries[i].frames // lost a generation race; both sets are byte-identical
	}
	c.entries = append(c.entries, inputEntry{k, frames})
	c.bytes += k.n
	for c.bytes > inputBudget {
		removeInput(0)
	}
	return frames
}

// inputKeyOf is the key of the input benchmark name generates at in; ok is
// false for a benchmark that generates none.
func inputKeyOf(name string, in Input) (k inputKey, ok bool) {
	b, err := ByName(name)
	if err != nil || b.input == nil {
		return inputKey{}, false
	}
	return b.input(in), true
}

// DropInput forgets the generated input benchmark name reads at in. An
// engine with a result cache calls it once a job's result is cached and no
// other queued or running job reads the same input: every repeat of the
// job is then a cache hit. An image already mapping the frames keeps
// reading them; the next Setup generates the same bytes again.
func DropInput(name string, in Input) {
	k, ok := inputKeyOf(name, in)
	if !ok {
		return
	}
	inputCache.Lock()
	defer inputCache.Unlock()
	if i, ok := lookupInput(k); ok {
		removeInput(i)
	}
}

// InputCached reports whether the input cache holds the input benchmark
// name reads at in.
func InputCached(name string, in Input) bool {
	k, ok := inputKeyOf(name, in)
	if !ok {
		return false
	}
	inputCache.Lock()
	defer inputCache.Unlock()
	_, held := lookupInput(k)
	return held
}
