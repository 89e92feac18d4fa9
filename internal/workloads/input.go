package workloads

import "sync"

// inputGen names the generator of a workload's input file.
type inputGen uint8

const (
	gzGen  inputGen = iota // 164.gzip: one rng stream, 64 KiB chunks
	crcGen                 // crc32: one rng per 64 KiB file
	bzGen                  // 256.bzip2: one rng per 16 KiB block
)

// inputKey identifies a generated input: its generator, seed and length.
// The misspeculation rate is not part of it, so cached bytes never carry a
// corrupt-file marker: a Setup writes its markers into the image after
// copying the input in.
type inputKey struct {
	gen  inputGen
	seed uint64
	n    int64
}

// generate builds the input k names.
func (k inputKey) generate() []byte {
	switch k.gen {
	case crcGen:
		return filesGenerate(k.seed, k.n, crcFileBytes, 1)
	case bzGen:
		return filesGenerate(k.seed, k.n, bzBlockBytes, 31)
	}
	return gzGenerate(k.seed, k.n)
}

// gzGenerate generates a 164.gzip input file, one rng stream filled in
// 64 KiB chunks. rng.fill back-references only within a chunk, so that
// chunking is part of the input's definition (TestRNGBytesPinned pins the
// bytes).
func gzGenerate(seed uint64, n int64) []byte {
	r := newRNG(seed)
	data := make([]byte, n)
	const chunk = 1 << 16
	for off := int64(0); off < n; off += chunk {
		r.fill(data[off:min(off+chunk, n)])
	}
	return data
}

// filesGenerate generates n bytes as files of size bytes, file i from its
// own rng seeded mix(seed, i*stride).
func filesGenerate(seed uint64, n int64, size, stride uint64) []byte {
	data := make([]byte, n)
	for i := uint64(0); i*size < uint64(n); i++ {
		newRNG(mix(seed, i*stride)).fill(data[i*size : min((i+1)*size, uint64(n))])
	}
	return data
}

// inputCache memoizes generated inputs: benchmark sweeps re-run Setup for
// every (workers, rate) point over the same input, a verify job's
// sequential reference and parallel run read the same one, and pushing
// megabytes through the rng dominates Setup's host cost. Host-parallel
// sweeps and a serving engine hit it from many goroutines at once: stored
// slices are never mutated after insertion. It holds at most inputBudget
// bytes, oldest entry out first, and a caching engine drops a job's input
// once the job's result is cached (DropInput), so a long-lived server fed
// fresh seeds keeps no input it will not read again.
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
	key  inputKey
	data []byte
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
// array does not keep its bytes alive. The caller holds the lock.
func removeInput(i int) {
	c := &inputCache
	c.bytes -= c.entries[i].key.n
	last := len(c.entries) - 1
	copy(c.entries[i:], c.entries[i+1:])
	c.entries[last] = inputEntry{}
	c.entries = c.entries[:last]
}

// cachedInput returns the input k names, from inputCache when it holds
// one. The caller must not modify it.
func cachedInput(k inputKey) []byte {
	c := &inputCache
	c.Lock()
	if i, ok := lookupInput(k); ok {
		data := c.entries[i].data
		c.Unlock()
		return data
	}
	c.Unlock()
	data := k.generate()
	if k.n > inputBudget {
		return data
	}
	c.Lock()
	defer c.Unlock()
	if i, ok := lookupInput(k); ok {
		return c.entries[i].data // lost a generation race; both buffers are byte-identical
	}
	c.entries = append(c.entries, inputEntry{k, data})
	c.bytes += k.n
	for c.bytes > inputBudget {
		removeInput(0)
	}
	return data
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
// job is then a cache hit. A Setup already holding the slice keeps reading
// it; the next one generates the same bytes again.
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
