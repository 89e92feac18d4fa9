package harness

import (
	"fmt"

	"dsmtx/internal/engine"
	"dsmtx/internal/stats"
	"dsmtx/internal/workloads"
)

// §7 extension: "DSMTX may also be useful for emerging manycore
// architectures that discard chip-wide cache coherence [the 48-core Intel
// part]. These architectures offer challenges similar to those found in
// clusters." Same runtime, same programs, a different machine model — the
// on-die mesh's 10x lower latency mainly helps the latency-exposed TLS
// parallelizations, while Spec-DSWP (latency-tolerant by construction)
// gains less: the paper's Fig. 1 argument, inverted.

// ManycoreRow compares one benchmark at 48 cores on the cluster vs. the
// coherence-free manycore.
type ManycoreRow struct {
	Bench                      string
	ClusterDSMTX, ClusterTLS   float64
	ManycoreDSMTX, ManycoreTLS float64
}

// RunManycore measures one benchmark on both machines at 48 cores.
func RunManycore(b *workloads.Benchmark, in workloads.Input) (ManycoreRow, error) {
	return new(Runner).RunManycore(b, in)
}

// RunManycore measures one §7 row through the runner's memo/cache. The
// manycore's cores are slower, so each machine's speedup is measured
// against a sequential run on that same machine (the engine.KnobManycore
// sequential job).
func (r *Runner) RunManycore(b *workloads.Benchmark, in workloads.Input) (ManycoreRow, error) {
	row := ManycoreRow{Bench: b.Name}
	run := func(p workloads.Paradigm, knob string) (float64, error) {
		seqTime, _, err := r.runSequential(b, in, knob)
		if err != nil {
			return 0, err
		}
		res, err := r.runParallel(b, in, p, 48, knob)
		if err != nil {
			return 0, err
		}
		return seqTime.Seconds() / res.Elapsed.Seconds(), nil
	}
	var err error
	if row.ClusterDSMTX, err = run(workloads.DSMTX, engine.KnobNone); err != nil {
		return row, err
	}
	if row.ClusterTLS, err = run(workloads.TLS, engine.KnobNone); err != nil {
		return row, err
	}
	if row.ManycoreDSMTX, err = run(workloads.DSMTX, engine.KnobManycore); err != nil {
		return row, err
	}
	if row.ManycoreTLS, err = run(workloads.TLS, engine.KnobManycore); err != nil {
		return row, err
	}
	return row, nil
}

// RenderManycore prints the comparison.
func RenderManycore(rows []ManycoreRow) string {
	tb := stats.Table{Header: []string{
		"benchmark", "cluster DSMTX", "cluster TLS", "manycore DSMTX", "manycore TLS"}}
	for _, r := range rows {
		tb.AddRow(r.Bench,
			stats.FormatSpeedup(r.ClusterDSMTX), stats.FormatSpeedup(r.ClusterTLS),
			stats.FormatSpeedup(r.ManycoreDSMTX), stats.FormatSpeedup(r.ManycoreTLS))
	}
	return fmt.Sprintf("§7 extension: 48 cores, InfiniBand cluster vs coherence-free manycore\n%s", tb.String())
}
