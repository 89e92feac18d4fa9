// Package workloads implements the paper's 11 benchmarks (Table 2) as real
// computational kernels parallelized for DSMTX.
//
// Each benchmark provides a DSMTX program (its best Spec-DSWP / Spec-DOALL
// parallelization) and a TLS program (the comparison runtime's DOACROSS-
// style parallelization), both runnable sequentially for the speedup
// baseline. The kernels reproduce the original benchmarks' loop structure,
// dependence pattern, speculation types and communication behaviour; their
// computation is real (compressors compress, the interpreter interprets,
// CRCs check out), with virtual-time cost charged in proportion to the work
// actually performed.
package workloads

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
)

// Input configures a benchmark run.
type Input struct {
	// Scale multiplies the default problem size (1 = the evaluation size).
	Scale int
	// MisspecRate is the fraction of iterations the generated input causes
	// to misspeculate (the paper's Fig. 6 uses 0.001). Benchmarks without
	// input-dependent misspeculation ignore it.
	MisspecRate float64
	// Seed makes input generation deterministic.
	Seed uint64
}

// DefaultInput is the evaluation-sized input.
func DefaultInput() Input { return Input{Scale: 1, Seed: 42} }

func (in Input) scale() int {
	if in.Scale <= 0 {
		return 1
	}
	return in.Scale
}

// Program is a runnable benchmark variant: a core.Program plus the sizing
// and verification hooks the harness needs.
type Program interface {
	core.Program
	// Plan is the parallelization scheme this program is written for.
	Plan() pipeline.Plan
	// Iterations is the loop trip count (for the sequential reference).
	Iterations() uint64
	// Checksum summarizes the program's output from committed memory; the
	// parallel and sequential executions must agree.
	Checksum(img *mem.Image) uint64
}

// Benchmark is one Table 2 row.
type Benchmark struct {
	Name        string
	Suite       string
	Description string
	SpecTypes   string // CFS / MVS / MV
	// Invocations is the number of parallel invocations chained through
	// committed memory (e.g. training epochs); 1 for single-loop programs.
	Invocations int
	// NewDSMTX and NewTLS build the two parallelizations for invocation
	// inv of [0, Invocations).
	NewDSMTX func(in Input, inv int) Program
	NewTLS   func(in Input, inv int) Program
	// input names the generated input file Setup maps from inputCache at
	// in; nil when Setup generates none.
	input func(in Input) inputKey
}

// Paradigm names the DSMTX parallelization in the paper's notation: its
// plan's name, so Table 2 reads what runs.
func (b *Benchmark) Paradigm() string { return b.NewDSMTX(Input{}, 0).Plan().Name }

// All returns the Table 2 benchmarks in the paper's order.
func All() []*Benchmark {
	return []*Benchmark{
		Alvinn(),
		Lisp(),
		Gzip(),
		Art(),
		Parser(),
		Bzip2(),
		Hmmer(),
		H264(),
		CRC32(),
		Blackscholes(),
		Swaptions(),
	}
}

// ByName finds a benchmark; it returns an error naming the options
// otherwise.
func ByName(name string) (*Benchmark, error) {
	var names []string
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
		names = append(names, b.Name)
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q (have %v)", name, names)
}

// rng is xorshift64*, deterministic across runs and platforms.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// fill overwrites b with deterministic pseudo-random text-like bytes:
// literal letters interleaved with repeated phrases, so compressors find
// real matches (roughly 2x compressible). Back-references reach only within
// b, so the bytes depend on how a caller splits its buffer into fills.
//
// The first 65 bytes are letters. After them a coin picks a letter or a
// back-reference of 6–23 bytes from 1–60 back, copied byte by byte, so a
// reference nearer than its length repeats its own start. While 24 bytes
// remain, a reference with off >= 8 copies three 8-byte words instead: each
// word reads only bytes before its own start, already final, so it writes
// what the byte loop would, and what it writes past the reference's length
// is overwritten before anything reads it. off < 8 and the tail keep the
// byte loop.
func (r *rng) fill(b []byte) {
	s := r.s
	step := func() {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
	}
	next := func() uint64 {
		step()
		return s * 0x2545f4914f6cdd1d
	}
	n := len(b)
	i := 0
	for ; i < n && i <= 64; i++ {
		b[i] = byte('a' + next()%26)
	}
	for i+24 <= n {
		// The coin is next()%2, which is the state's parity because the
		// multiplier is odd.
		if step(); s&1 != 0 {
			b[i] = byte('a' + next()%26)
			i++
			continue
		}
		length := 6 + int(next()%18)
		off := 1 + int(next()%60)
		if off >= 8 {
			src, dst := b[i-off:], b[i:]
			binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(src))
			binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(src[8:]))
			binary.LittleEndian.PutUint64(dst[16:], binary.LittleEndian.Uint64(src[16:]))
		} else {
			for k := range length {
				b[i+k] = b[i+k-off]
			}
		}
		i += length
	}
	for i < n {
		if next()%2 == 0 {
			length := 6 + int(next()%18)
			off := 1 + int(next()%60)
			for k := 0; k < length && i < n; k++ {
				b[i] = b[i-off]
				i++
			}
			continue
		}
		b[i] = byte('a' + next()%26)
		i++
	}
	r.s = s
}

// misspecList returns the corrupted iterations in ascending order (for
// deterministic role assignment).
func misspecList(n uint64, rate float64, seed uint64) []uint64 {
	set := misspecSet(n, rate, seed)
	out := make([]uint64, 0, len(set))
	for iter := range set {
		out = append(out, iter)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// misspecSet picks the iterations a given misspeculation rate corrupts.
func misspecSet(n uint64, rate float64, seed uint64) map[uint64]bool {
	set := make(map[uint64]bool)
	if rate <= 0 {
		return set
	}
	r := newRNG(seed ^ 0xabcdef)
	count := int(float64(n) * rate)
	if count == 0 && rate > 0 {
		count = 1
	}
	for len(set) < count && uint64(len(set)) < n {
		set[uint64(r.intn(int(n)))] = true
	}
	return set
}

// mix folds a value into a running checksum (used to build output
// checksums that are order-sensitive).
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}
