package harness

import (
	"fmt"

	"dsmtx/internal/engine"
	"dsmtx/internal/faults"
	"dsmtx/internal/job"
	"dsmtx/internal/sim"
	"dsmtx/internal/stats"
	"dsmtx/internal/workloads"
)

// Figure R (resilience) is not in the paper: it extends the evaluation with
// the deterministic fault-injection subsystem, measuring how DSMTX speedup
// degrades as the commodity-cluster assumption erodes — here, a straggling
// host. Every faulty run must still produce the sequential reference
// checksum; the figure reports the performance cost of surviving, never
// wrong answers.

// FigRBenches picks one pipeline benchmark (164.gzip, Spec-DSWP) and one
// DOALL benchmark (blackscholes) so both communication patterns face the
// faults.
func FigRBenches() []string { return []string{"164.gzip", "blackscholes"} }

// FigRCores are the cluster sizes of the resilience sweep.
func FigRCores() []int { return []int{32, 96} }

// figRStragglerPlan slows worker rank 1's host to half speed for the whole
// run (the window deliberately outlasts any simulated execution).
func figRStragglerPlan() *faults.Plan {
	return &faults.Plan{Stragglers: []faults.Straggler{
		{Rank: 1, From: 0, Dur: 3600 * sim.Second, Factor: 2},
	}}
}

// FigRRow is one benchmark/core-count resilience breakdown.
type FigRRow struct {
	Bench     string
	Cores     int
	Clean     float64 // fault-free speedup over sequential
	Straggler float64 // speedup with rank 1 at half speed
}

// RunFigureR measures one resilience cell: the sequential reference, the
// clean run and the straggler run.
func (r *Runner) RunFigureR(b *workloads.Benchmark, in workloads.Input, cores int) (FigRRow, error) {
	cores = clampCores(b, in, cores)
	row := FigRRow{Bench: b.Name, Cores: cores}
	straggler := parJob(b.Name, in, workloads.DSMTX, cores, job.KnobNone)
	straggler.Faults = figRStragglerPlan().Format()
	res, err := r.resolveAll(seqJob(b.Name, in, job.KnobNone),
		parJob(b.Name, in, workloads.DSMTX, cores, job.KnobNone), straggler)
	if err != nil {
		return row, err
	}
	seq, clean, strag := res[0], res[1], res[2]
	check := func(label string, run engine.Result) error {
		if run.Checksum != seq.SeqCheck {
			return fmt.Errorf("%s@%d %s: checksum %#x != sequential %#x — a fault corrupted the computation",
				b.Name, cores, label, run.Checksum, seq.SeqCheck)
		}
		return nil
	}
	speedup := func(run engine.Result) float64 { return seq.SeqTime.Seconds() / run.Elapsed.Seconds() }
	if err := check("clean", clean); err != nil {
		return row, err
	}
	row.Clean = speedup(clean)
	if err := check("straggler", strag); err != nil {
		return row, err
	}
	row.Straggler = speedup(strag)
	return row, nil
}

// RenderFigureR prints the resilience table.
func RenderFigureR(rows []FigRRow) string {
	tb := stats.Table{Header: []string{"benchmark", "cores", "clean", "straggler"}}
	for _, r := range rows {
		tb.AddRow(r.Bench, fmt.Sprint(r.Cores), stats.FormatSpeedup(r.Clean), stats.FormatSpeedup(r.Straggler))
	}
	return "Figure R: speedup under injected faults (all runs reproduce the sequential checksum)\n" + tb.String()
}
