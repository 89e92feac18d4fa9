// Package harness regenerates the paper's evaluation: every figure and
// table of §5 has a Run function producing the same rows or series the
// paper reports, plus renderers for terminals.
package harness

import (
	"fmt"
	"strings"

	"dsmtx/internal/job"
	"dsmtx/internal/stats"
	"dsmtx/internal/workloads"
)

// DefaultCores is the paper's x-axis: 8 to 128 in steps of 8.
func DefaultCores() []int {
	var cores []int
	for c := 8; c <= 128; c += 8 {
		cores = append(cores, c)
	}
	return cores
}

// QuickCores is a coarse sweep for fast runs.
func QuickCores() []int { return []int{8, 16, 32, 64, 96, 128} }

// minCores reports the smallest usable core count for a program's plan.
func minCores(p workloads.Program) int { return p.Plan().MinWorkers() + 2 }

// clampCores raises a requested core count to the plan's minimum.
func clampCores(b *workloads.Benchmark, in workloads.Input, c int) int {
	return max(c, minCores(b.NewDSMTX(in, 0)))
}

// parJob and seqJob describe one parallel run / one sequential reference
// of a figure cell as an engine job.
func parJob(bench string, in workloads.Input, paradigm workloads.Paradigm, cores int, knob string) job.Spec {
	return job.Spec{Bench: bench, Paradigm: paradigm.String(), Cores: cores,
		Scale: in.Scale, Seed: in.Seed, Rate: in.MisspecRate, Knob: knob}
}

func seqJob(bench string, in workloads.Input, knob string) job.Spec {
	return job.Spec{Kind: job.KindSeq, Bench: bench,
		Scale: in.Scale, Seed: in.Seed, Rate: in.MisspecRate, Knob: knob}
}

// Fig4Series is one benchmark's speedup curves.
type Fig4Series struct {
	Bench    string
	Paradigm string // the DSMTX paradigm label, e.g. "Spec-DSWP+[S,DOALL,S]"
	Cores    []int
	DSMTX    []float64 // speedup over sequential
	TLS      []float64
	SeqTime  float64 // seconds of virtual time, sequential
}

// RunFigure4 measures speedup-vs-cores for one benchmark (one panel of
// Fig. 4): the sequential reference plus a DSMTX and a TLS run per core
// count, each raised to the plan's minimum.
func (r *Runner) RunFigure4(b *workloads.Benchmark, in workloads.Input, cores []int) (Fig4Series, error) {
	out := Fig4Series{Bench: b.Name, Paradigm: b.Paradigm()}
	specs := []job.Spec{seqJob(b.Name, in, job.KnobNone)}
	for _, c := range cores {
		c = clampCores(b, in, c)
		out.Cores = append(out.Cores, c)
		specs = append(specs,
			parJob(b.Name, in, workloads.DSMTX, c, job.KnobNone),
			parJob(b.Name, in, workloads.TLS, c, job.KnobNone))
	}
	res, err := r.resolveAll(specs...)
	if err != nil {
		return out, err
	}
	seq := res[0]
	out.SeqTime = seq.SeqTime.Seconds()
	for i, c := range out.Cores {
		dres, tres := res[1+2*i], res[2+2*i]
		if dres.Checksum != seq.SeqCheck || tres.Checksum != seq.SeqCheck {
			return out, fmt.Errorf("%s@%d: checksum mismatch (dsmtx %#x tls %#x seq %#x)",
				b.Name, c, dres.Checksum, tres.Checksum, seq.SeqCheck)
		}
		out.DSMTX = append(out.DSMTX, out.SeqTime/dres.Elapsed.Seconds())
		out.TLS = append(out.TLS, out.SeqTime/tres.Elapsed.Seconds())
	}
	return out, nil
}

// Fig4Geomean is panel (l): geomean across benchmarks per core count.
type Fig4Geomean struct {
	Cores []int
	DSMTX []float64 // geomean of per-benchmark best-paradigm... see note
	TLS   []float64
	Best  []float64 // "DSMTX Best": max(DSMTX, TLS) per benchmark, as the paper's headline
}

// Geomean folds per-benchmark series into panel (l).
func Geomean(series []Fig4Series) Fig4Geomean {
	if len(series) == 0 {
		return Fig4Geomean{}
	}
	g := Fig4Geomean{Cores: series[0].Cores}
	for i := range g.Cores {
		var d, t, best []float64
		for _, s := range series {
			if i >= len(s.DSMTX) {
				continue
			}
			d = append(d, s.DSMTX[i])
			t = append(t, s.TLS[i])
			best = append(best, max(s.DSMTX[i], s.TLS[i]))
		}
		g.DSMTX = append(g.DSMTX, stats.Geomean(d))
		g.TLS = append(g.TLS, stats.Geomean(t))
		g.Best = append(g.Best, stats.Geomean(best))
	}
	return g
}

// RenderFigure4 draws one panel as an ASCII chart plus a table.
func RenderFigure4(s Fig4Series) string {
	var b strings.Builder
	ser := []stats.Series{
		{Name: s.Paradigm + " (DSMTX)"},
		{Name: "TLS"},
	}
	for i, c := range s.Cores {
		ser[0].Add(float64(c), s.DSMTX[i])
		ser[1].Add(float64(c), s.TLS[i])
	}
	b.WriteString(stats.Plot("Figure 4: "+s.Bench, "cores", "speedup", ser, 64, 16))
	tb := stats.Table{Header: []string{"cores", "DSMTX", "TLS"}}
	for i, c := range s.Cores {
		tb.AddRow(fmt.Sprint(c), stats.FormatSpeedup(s.DSMTX[i]), stats.FormatSpeedup(s.TLS[i]))
	}
	b.WriteString(tb.String())
	return b.String()
}

// RenderGeomean draws panel (l).
func RenderGeomean(g Fig4Geomean) string {
	var b strings.Builder
	ser := []stats.Series{{Name: "Spec-DSWP (DSMTX)"}, {Name: "TLS"}, {Name: "DSMTX Best"}}
	for i, c := range g.Cores {
		ser[0].Add(float64(c), g.DSMTX[i])
		ser[1].Add(float64(c), g.TLS[i])
		ser[2].Add(float64(c), g.Best[i])
	}
	b.WriteString(stats.Plot("Figure 4(l): geomean", "cores", "speedup", ser, 64, 16))
	tb := stats.Table{Header: []string{"cores", "DSMTX", "TLS", "best"}}
	for i, c := range g.Cores {
		tb.AddRow(fmt.Sprint(c), stats.FormatSpeedup(g.DSMTX[i]),
			stats.FormatSpeedup(g.TLS[i]), stats.FormatSpeedup(g.Best[i]))
	}
	b.WriteString(tb.String())
	return b.String()
}

// Fig5aRow is one benchmark's bandwidth requirement at consecutive core
// counts (Fig. 5a).
type Fig5aRow struct {
	Bench string
	Cores []int
	KBps  []float64
}

// RunFigure5a measures application bandwidth at four consecutive core
// counts starting from the plan's minimum, under Spec-DSWP (as the paper
// does).
func (r *Runner) RunFigure5a(b *workloads.Benchmark, in workloads.Input) (Fig5aRow, error) {
	row := Fig5aRow{Bench: b.Name}
	base := minCores(b.NewDSMTX(in, 0))
	var specs []job.Spec
	for c := base; c < base+4; c++ {
		row.Cores = append(row.Cores, c)
		specs = append(specs, parJob(b.Name, in, workloads.DSMTX, c, job.KnobNone))
	}
	res, err := r.resolveAll(specs...)
	if err != nil {
		return row, err
	}
	for _, run := range res {
		row.KBps = append(row.KBps, run.Bandwidth()/1e3)
	}
	return row, nil
}

// RenderFigure5a prints the bandwidth table.
func RenderFigure5a(rows []Fig5aRow) string {
	tb := stats.Table{Header: []string{"benchmark", "cores", "+1", "+2", "+3 (kBps)"}}
	for _, r := range rows {
		cells := []string{r.Bench}
		for _, v := range r.KBps {
			cells = append(cells, fmt.Sprintf("%.0f", v))
		}
		tb.AddRow(cells...)
	}
	return "Figure 5(a): bandwidth requirement (kBps) at consecutive core counts\n" + tb.String()
}

// Fig5bRow compares batched queues against per-datum MPI sends (Fig. 5b).
type Fig5bRow struct {
	Bench        string
	Optimized    float64 // speedup with batched queues
	NonOptimized float64 // speedup flushing every produce
}

// RunFigure5b measures the communication optimization's effect at the given
// core count (the paper uses 128): sequential reference, batched run,
// flush-every-produce run.
func (r *Runner) RunFigure5b(b *workloads.Benchmark, in workloads.Input, cores int) (Fig5bRow, error) {
	row := Fig5bRow{Bench: b.Name}
	res, err := r.resolveAll(
		seqJob(b.Name, in, job.KnobNone),
		parJob(b.Name, in, workloads.DSMTX, cores, job.KnobNone),
		parJob(b.Name, in, workloads.DSMTX, cores, job.KnobQueueUnopt))
	if err != nil {
		return row, err
	}
	seqTime := res[0].SeqTime.Seconds()
	row.Optimized = seqTime / res[1].Elapsed.Seconds()
	row.NonOptimized = seqTime / res[2].Elapsed.Seconds()
	return row, nil
}

// RenderFigure5b prints the optimization comparison.
func RenderFigure5b(rows []Fig5bRow) string {
	tb := stats.Table{Header: []string{"benchmark", "NonOptimized", "Optimized"}}
	var non, opt []float64
	for _, r := range rows {
		tb.AddRow(r.Bench, stats.FormatSpeedup(r.NonOptimized), stats.FormatSpeedup(r.Optimized))
		non = append(non, r.NonOptimized)
		opt = append(opt, r.Optimized)
	}
	tb.AddRow("geomean", stats.FormatSpeedup(stats.Geomean(non)), stats.FormatSpeedup(stats.Geomean(opt)))
	return "Figure 5(b): effect of communication optimization\n" + tb.String()
}

// Fig6Row is one benchmark/core-count recovery-overhead breakdown.
type Fig6Row struct {
	Bench    string
	Cores    int
	Clean    float64 // speedup with no misspeculation
	MIS      float64 // speedup at the given misspeculation rate
	Misspecs uint64
	// Phase shares of the total overhead (seconds of virtual time).
	ERM, FLQ, SEQ, RFP float64
}

// Fig6Benches are the benchmarks with input-dependent misspeculation (the
// others are excluded, as in the paper).
func Fig6Benches() []string {
	return []string{"130.li", "197.parser", "256.bzip2", "crc32", "blackscholes", "swaptions"}
}

// RunFigure6 measures recovery overhead at the given misspeculation rate
// (the paper uses 0.1%): clean and misspeculating variants of both the
// sequential reference and the parallel run.
func (r *Runner) RunFigure6(b *workloads.Benchmark, in workloads.Input, rate float64, cores int) (Fig6Row, error) {
	row := Fig6Row{Bench: b.Name, Cores: cores}
	mis := in
	mis.MisspecRate = rate
	// The sequential baseline must process the same (corrupted) input.
	res, err := r.resolveAll(
		seqJob(b.Name, in, job.KnobNone),
		parJob(b.Name, in, workloads.DSMTX, cores, job.KnobNone),
		seqJob(b.Name, mis, job.KnobNone),
		parJob(b.Name, mis, workloads.DSMTX, cores, job.KnobNone))
	if err != nil {
		return row, err
	}
	seq, clean, misSeq, misRes := res[0], res[1], res[2], res[3]
	if misRes.Checksum != misSeq.SeqCheck {
		return row, fmt.Errorf("%s@%d: misspec run checksum mismatch", b.Name, cores)
	}
	row.Clean = seq.SeqTime.Seconds() / clean.Elapsed.Seconds()
	row.MIS = misSeq.SeqTime.Seconds() / misRes.Elapsed.Seconds()
	row.Misspecs = misRes.Misspecs
	row.ERM = misRes.ERM.Seconds()
	row.FLQ = misRes.FLQ.Seconds()
	row.SEQ = misRes.SEQ.Seconds()
	row.RFP = misRes.RFP.Seconds()
	return row, nil
}

// RenderFigure6 prints the recovery breakdown.
func RenderFigure6(rows []Fig6Row) string {
	tb := stats.Table{Header: []string{
		"benchmark", "cores", "clean", "MIS", "misspecs", "ERM ms", "FLQ ms", "SEQ ms", "RFP ms"}}
	for _, r := range rows {
		tb.AddRow(r.Bench, fmt.Sprint(r.Cores),
			stats.FormatSpeedup(r.Clean), stats.FormatSpeedup(r.MIS), fmt.Sprint(r.Misspecs),
			fmt.Sprintf("%.3f", r.ERM*1e3), fmt.Sprintf("%.3f", r.FLQ*1e3),
			fmt.Sprintf("%.3f", r.SEQ*1e3), fmt.Sprintf("%.3f", r.RFP*1e3))
	}
	return "Figure 6: recovery overhead at misspeculation rate 0.1%\n" + tb.String()
}

// RenderTable2 prints the benchmark inventory.
func RenderTable2() string {
	tb := stats.Table{Header: []string{"Benchmark", "Source Suite", "Description", "Parallelization Paradigm", "Speculation"}}
	for _, b := range workloads.All() {
		tb.AddRow(b.Name, b.Suite, b.Description, b.Paradigm(), b.SpecTypes)
	}
	return "Table 2: Benchmark Details\n" + tb.String()
}
