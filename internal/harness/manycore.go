package harness

import (
	"fmt"

	"dsmtx/internal/job"
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

// RunManycore measures one benchmark on both machines at 48 cores. The
// manycore's cores are slower, so each machine's speedup is measured
// against a sequential run on that same machine (the job.KnobManycore
// sequential job).
func (r *Runner) RunManycore(b *workloads.Benchmark, in workloads.Input) (ManycoreRow, error) {
	row := ManycoreRow{Bench: b.Name}
	var specs []job.Spec
	for _, knob := range []string{job.KnobNone, job.KnobManycore} {
		specs = append(specs,
			seqJob(b.Name, in, knob),
			parJob(b.Name, in, workloads.DSMTX, 48, knob),
			parJob(b.Name, in, workloads.TLS, 48, knob))
	}
	res, err := r.resolveAll(specs...)
	if err != nil {
		return row, err
	}
	speedup := func(seq, par int) float64 { return res[seq].SeqTime.Seconds() / res[par].Elapsed.Seconds() }
	row.ClusterDSMTX, row.ClusterTLS = speedup(0, 1), speedup(0, 2)
	row.ManycoreDSMTX, row.ManycoreTLS = speedup(3, 4), speedup(3, 5)
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
