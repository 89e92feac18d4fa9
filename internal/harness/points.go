package harness

import (
	"dsmtx/internal/engine"
	"dsmtx/internal/workloads"
)

// Job enumerators: each figure's Run method decomposes into a flat list
// of independent engine jobs. A driver collects the lists for everything
// it is about to render, hands the union to Runner.Prefetch (which
// deduplicates — the sequential references are shared by Figs. 4, 5b and
// 6), and then calls the Run methods, which replay against the warm memo
// in their original order. Each enumerator must name exactly the jobs its
// Run method resolves.

// parJob and seqJob describe one parallel run / one sequential reference
// of a figure cell as an engine job.
func parJob(bench string, in workloads.Input, paradigm workloads.Paradigm, cores int, knob string) engine.JobSpec {
	return engine.JobSpec{Bench: bench, Paradigm: paradigm.String(), Cores: cores,
		Scale: in.Scale, Seed: in.Seed, Rate: in.MisspecRate, Knob: knob}
}

func seqJob(bench string, in workloads.Input, knob string) engine.JobSpec {
	return engine.JobSpec{Kind: engine.KindSeq, Bench: bench,
		Scale: in.Scale, Seed: in.Seed, Rate: in.MisspecRate, Knob: knob}
}

// PointsFigure4 lists one benchmark's Fig. 4 panel: the sequential
// reference plus a DSMTX and a TLS run per core count.
func PointsFigure4(b *workloads.Benchmark, in workloads.Input, cores []int) []engine.JobSpec {
	specs := []engine.JobSpec{seqJob(b.Name, in, engine.KnobNone)}
	for _, c := range cores {
		c = clampCores(b, in, c)
		specs = append(specs,
			parJob(b.Name, in, workloads.DSMTX, c, engine.KnobNone),
			parJob(b.Name, in, workloads.TLS, c, engine.KnobNone))
	}
	return specs
}

// PointsFigure5a lists the four consecutive-core bandwidth runs.
func PointsFigure5a(b *workloads.Benchmark, in workloads.Input) []engine.JobSpec {
	base := minCores(b.NewDSMTX(in, 0))
	var specs []engine.JobSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, parJob(b.Name, in, workloads.DSMTX, base+i, engine.KnobNone))
	}
	return specs
}

// PointsFigure5b lists the communication-optimization comparison at one
// core count: sequential reference, batched run, flush-every-produce run.
func PointsFigure5b(b *workloads.Benchmark, in workloads.Input, cores int) []engine.JobSpec {
	return []engine.JobSpec{
		seqJob(b.Name, in, engine.KnobNone),
		parJob(b.Name, in, workloads.DSMTX, cores, engine.KnobNone),
		parJob(b.Name, in, workloads.DSMTX, cores, engine.KnobQueueUnopt),
	}
}

// PointsFigure6 lists one benchmark/core-count recovery cell: clean and
// misspeculating variants of both the reference and the parallel run.
func PointsFigure6(b *workloads.Benchmark, in workloads.Input, rate float64, cores int) []engine.JobSpec {
	mis := in
	mis.MisspecRate = rate
	return []engine.JobSpec{
		seqJob(b.Name, in, engine.KnobNone),
		parJob(b.Name, in, workloads.DSMTX, cores, engine.KnobNone),
		seqJob(b.Name, mis, engine.KnobNone),
		parJob(b.Name, mis, workloads.DSMTX, cores, engine.KnobNone),
	}
}

// PointsManycore lists one benchmark's §7 comparison: both machine
// models, each with its own sequential baseline and both paradigms at 48
// cores.
func PointsManycore(b *workloads.Benchmark, in workloads.Input) []engine.JobSpec {
	var specs []engine.JobSpec
	for _, knob := range []string{engine.KnobNone, engine.KnobManycore} {
		specs = append(specs,
			seqJob(b.Name, in, knob),
			parJob(b.Name, in, workloads.DSMTX, 48, knob),
			parJob(b.Name, in, workloads.TLS, 48, knob))
	}
	return specs
}

// clampCores raises a requested core count to the plan's minimum, the
// same adjustment RunFigure4 applies before running.
func clampCores(b *workloads.Benchmark, in workloads.Input, c int) int {
	if minc := minCores(b.NewDSMTX(in, 0)); c < minc {
		return minc
	}
	return c
}
