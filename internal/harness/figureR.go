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
// degrades as the commodity-cluster assumption erodes — message loss on the
// interconnect, a straggling host, and a worker crash with restart. Every
// faulty run must still produce the sequential reference checksum; the
// figure reports the performance cost of surviving, never wrong answers.

// FigRDropRates is the symmetric loss sweep (data and acks) of the drop
// columns.
var FigRDropRates = []float64{1e-4, 1e-3, 1e-2}

// FigRBenches picks one pipeline benchmark (164.gzip, Spec-DSWP) and one
// DOALL benchmark (blackscholes) so both communication patterns face the
// faults.
func FigRBenches() []string { return []string{"164.gzip", "blackscholes"} }

// FigRCores are the cluster sizes of the resilience sweep.
func FigRCores() []int { return []int{32, 96} }

// figRSeed seeds every Figure R fault plan; the plans — not the workload
// inputs — own fault randomness.
const figRSeed = 7

func figRDropPlan(rate float64) *faults.Plan {
	return &faults.Plan{Seed: figRSeed, DropRate: rate, AckDropRate: rate}
}

// figRStragglerPlan slows worker rank 1's host to half speed for the whole
// run (the window deliberately outlasts any simulated execution).
func figRStragglerPlan() *faults.Plan {
	return &faults.Plan{Stragglers: []faults.Straggler{
		{Rank: 1, From: 0, Dur: 3600 * sim.Second, Factor: 2},
	}}
}

// figRCrashPlan schedules one mid-invocation crash of worker rank 1 with a
// downtime of a tenth of the clean invocation; both instants derive from
// the clean run's elapsed time, so the plan self-scales across benchmarks
// and core counts.
func figRCrashPlan(cleanPerInvocation sim.Time) *faults.Plan {
	return &faults.Plan{Crashes: []faults.Crash{
		{Rank: 1, At: cleanPerInvocation / 2, Downtime: cleanPerInvocation / 10},
	}}
}

// faultJob is parJob plus a canonical fault-plan string.
func faultJob(bench string, in workloads.Input, cores int, plan *faults.Plan) job.Spec {
	s := parJob(bench, in, workloads.DSMTX, cores, job.KnobNone)
	s.Faults = plan.Format()
	return s
}

// FigRDrop is one loss-rate cell.
type FigRDrop struct {
	Rate    float64
	Speedup float64
	Retrans uint64 // retransmitted messages the loss forced
}

// FigRRow is one benchmark/core-count resilience breakdown.
type FigRRow struct {
	Bench     string
	Cores     int
	Clean     float64 // fault-free speedup over sequential
	Drop      []FigRDrop
	Crash     float64 // speedup with one worker crash per invocation
	Crashes   uint64  // crashes survived across the run
	RedispMS  float64 // commit-unit re-dispatch wall time, milliseconds
	Straggler float64 // speedup with rank 1 at half speed
}

// RunFigureR measures one resilience cell: the sequential reference, the
// clean run, the straggler run and the drop sweep, then the crash run,
// whose plan derives from the clean run's elapsed time.
func (r *Runner) RunFigureR(b *workloads.Benchmark, in workloads.Input, cores int) (FigRRow, error) {
	cores = clampCores(b, in, cores)
	row := FigRRow{Bench: b.Name, Cores: cores}
	specs := []job.Spec{
		seqJob(b.Name, in, job.KnobNone),
		parJob(b.Name, in, workloads.DSMTX, cores, job.KnobNone),
		faultJob(b.Name, in, cores, figRStragglerPlan()),
	}
	for _, rate := range FigRDropRates {
		specs = append(specs, faultJob(b.Name, in, cores, figRDropPlan(rate)))
	}
	res, err := r.resolveAll(specs...)
	if err != nil {
		return row, err
	}
	seq, clean, strag, drops := res[0], res[1], res[2], res[3:]
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
	for i, rate := range FigRDropRates {
		if err := check(fmt.Sprintf("drop %g", rate), drops[i]); err != nil {
			return row, err
		}
		row.Drop = append(row.Drop, FigRDrop{
			Rate:    rate,
			Speedup: speedup(drops[i]),
			Retrans: drops[i].Traffic.RetransMessages,
		})
	}

	crashPlan := figRCrashPlan(clean.Elapsed / sim.Time(max(b.Invocations, 1)))
	res, err = r.resolveAll(faultJob(b.Name, in, cores, crashPlan))
	if err != nil {
		return row, err
	}
	crash := res[0]
	if err := check("crash", crash); err != nil {
		return row, err
	}
	if crash.Crashes == 0 {
		return row, fmt.Errorf("%s@%d: scheduled crash never fired", b.Name, cores)
	}
	row.Crash = speedup(crash)
	row.Crashes = crash.Crashes
	row.RedispMS = crash.Redispatch.Seconds() * 1e3

	if err := check("straggler", strag); err != nil {
		return row, err
	}
	row.Straggler = speedup(strag)
	return row, nil
}

// RenderFigureR prints the resilience table.
func RenderFigureR(rows []FigRRow) string {
	header := []string{"benchmark", "cores", "clean"}
	for _, rate := range FigRDropRates {
		header = append(header, fmt.Sprintf("drop %g", rate))
	}
	header = append(header, "crash", "straggler", "retrans@1%", "crashes", "redisp ms")
	tb := stats.Table{Header: header}
	for _, r := range rows {
		cells := []string{r.Bench, fmt.Sprint(r.Cores), stats.FormatSpeedup(r.Clean)}
		var worstRetrans uint64
		for _, d := range r.Drop {
			cells = append(cells, stats.FormatSpeedup(d.Speedup))
			worstRetrans = d.Retrans
		}
		cells = append(cells, stats.FormatSpeedup(r.Crash), stats.FormatSpeedup(r.Straggler),
			fmt.Sprint(worstRetrans), fmt.Sprint(r.Crashes), fmt.Sprintf("%.3f", r.RedispMS))
		tb.AddRow(cells...)
	}
	return "Figure R: speedup under injected faults (all runs reproduce the sequential checksum)\n" + tb.String()
}
