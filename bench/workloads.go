package main

import (
	"fmt"

	"dsmtx/internal/engine"
)

// The four workloads. Each is a closed loop (callers wait for a reply) over
// a job sequence generated from -seed; the program under test only ever
// sees the generated JobSpecs. Rank counts are the minimum the pipeline
// plan admits (3 stages + try-commit + commit), not scaled to the machine,
// so rows compare across boxes.

const (
	ranks      = 5
	seedCycle  = 8 // input seeds (or hot specs) a workload cycles through
	vtimeCores = 32
	warmupJobs = 3
)

// workloadDef is one row of the workload table.
type workloadDef struct {
	name string
	// http marks the workload driven through a real `dsmtxd serve` process;
	// the others submit to an in-process engine.
	http    bool
	clients int
	// jobsPerSecond is the workload's throughput on the 2-CPU box the
	// benchmark was sized on. The timed window is a fixed job count,
	// -seconds times this rate, so that it lasts about -seconds there and
	// is the same work on every commit.
	jobsPerSecond float64
	// base is the spec every job of an engine-driven workload shares, up to
	// its input seed.
	base engine.JobSpec
}

var workloadDefs = []workloadDef{
	{
		name:          "host-stream",
		clients:       1,
		jobsPerSecond: 3.4,
		base:          engine.JobSpec{Bench: "164.gzip", Backend: "host", Cores: ranks, Scale: 4},
	},
	{
		name:          "host-recover",
		clients:       1,
		jobsPerSecond: 7.2,
		base:          engine.JobSpec{Bench: "197.parser", Backend: "host", Cores: ranks, Scale: 1, Rate: 0.05},
	},
	{
		name:          "net-loopback",
		clients:       1,
		jobsPerSecond: 0.55,
		base:          engine.JobSpec{Bench: "164.gzip", Backend: "net", Cores: ranks, Scale: 1},
	},
	{
		name:          "serve-mix",
		http:          true,
		clients:       2,
		jobsPerSecond: 20,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	var names []string
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i], nil
		}
		names = append(names, workloadDefs[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// splitmix is the seed-derivation hash: stateless, so job i of a sequence
// can be computed without generating jobs 0..i-1.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive mixes a stream label and an index into the run seed. Results are
// kept non-zero: the workloads treat seed 0 as "use the default".
func derive(seed, stream, i uint64) uint64 {
	return splitmix(splitmix(seed^stream*0x9e3779b97f4a7c15)+i) | 1
}

// Seed streams.
const (
	streamInput = iota + 1
	streamHot
	streamFresh
	streamOrder
	streamPick
)

// job is one element of a workload's sequence.
type job struct {
	spec engine.JobSpec
	// hot marks a serve-mix draw from the hot set: after first sight the
	// server answers it from the result cache or by coalescing.
	hot bool
}

// The three fresh-job classes of serve-mix, in rotation.
var mixClasses = []engine.JobSpec{
	{Bench: "197.parser", Backend: "host", Cores: ranks, Scale: 1, Rate: 0.05, Verify: true},
	{Bench: "164.gzip", Backend: "host", Cores: ranks, Scale: 1, Verify: true},
	{Bench: "crc32", Backend: "vtime", Cores: vtimeCores, Scale: 1, Verify: true},
}

// plan is a workload bound to a seed: a deterministic, random-access job
// sequence.
type plan struct {
	def  *workloadDef
	seed uint64
}

// hotSpec is the k-th member of serve-mix's hot set.
func (p plan) hotSpec(k int) engine.JobSpec {
	s := mixClasses[k%len(mixClasses)]
	s.Seed = derive(p.seed, streamHot, uint64(k))
	return s
}

// job returns the i-th job of the sequence.
func (p plan) job(i int) job {
	if !p.def.http {
		s := p.def.base
		s.Seed = derive(p.seed, streamInput, uint64(i%seedCycle))
		return job{spec: s}
	}
	// serve-mix: every block of four jobs holds two hot draws and two fresh
	// jobs in a seeded order, so any prefix of the sequence is half hot to
	// within one job, whatever the seed.
	block, pos := i/4, i%4
	slots := [4]bool{true, true, false, false}
	for k := 3; k > 0; k-- { // Fisher-Yates from the block's own hash
		j := int(derive(p.seed, streamOrder, uint64(block*4+k)) % uint64(k+1))
		slots[k], slots[j] = slots[j], slots[k]
	}
	if slots[pos] {
		k := int(derive(p.seed, streamPick, uint64(i)) % seedCycle)
		return job{spec: p.hotSpec(k), hot: true}
	}
	fresh := block * 2 // fresh jobs before this block
	for k := 0; k < pos; k++ {
		if !slots[k] {
			fresh++
		}
	}
	s := mixClasses[fresh%len(mixClasses)]
	s.Seed = derive(p.seed, streamFresh, uint64(i))
	return job{spec: s}
}

// jobs lists the first n jobs.
func (p plan) jobs(n int) []job {
	out := make([]job, n)
	for i := range out {
		out[i] = p.job(i)
	}
	return out
}
