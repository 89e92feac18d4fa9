package harness

import (
	"fmt"

	"dsmtx/internal/engine"
	"dsmtx/internal/job"
	"dsmtx/internal/stats"
	"dsmtx/internal/workloads"
)

// Figure S (sharding) is not in the paper: it extends the evaluation past
// the paper's 128-core platform to a 64-node, 16-core cluster (job.KnobBigCluster)
// where the single commit unit of §4 becomes the bottleneck, and sweeps the
// commit-shard count. Each shard owns a consistent-hashed slice of the page
// space with its own validate/group-commit/COA loop; multi-shard MTXs commit
// through the ordered cross-shard vote. Every cell must reproduce the
// single-shard checksum — the sweep measures committed-MTX throughput, never
// different answers.

// FigSShards is the commit-shard sweep; 1 is the paper's layout and the
// baseline of each row.
var FigSShards = []int{1, 2, 4, 8}

// FigSBenches covers one pipeline benchmark (164.gzip, Spec-DSWP) and two
// DOALL benchmarks so commit traffic with both communication patterns hits
// the sharded pipeline.
func FigSBenches() []string { return []string{"164.gzip", "crc32", "blackscholes"} }

// FigSCores are the cluster sizes of the sharding sweep — the scale at which
// commit-unit serialization starts to dominate.
func FigSCores() []int { return []int{512, 1024} }

// figSScale multiplies the problem size: at 512-1024 cores the default
// inputs drain before the commit pipeline saturates, so without it the
// sweep would measure pipeline fill instead of commit throughput.
const figSScale = 4

func figSInput(in workloads.Input) workloads.Input {
	if in.Scale < 1 {
		in.Scale = 1
	}
	in.Scale *= figSScale
	return in
}

// figSJob is parJob on the big cluster plus the commit-shard count (one
// shard normalizes to a plain job.KnobBigCluster run).
func figSJob(bench string, in workloads.Input, cores, shards int) job.Spec {
	s := parJob(bench, in, workloads.DSMTX, cores, job.KnobBigCluster)
	s.CommitShards = shards
	return s
}

// FigSCell is one shard count's measurement.
type FigSCell struct {
	Shards     int
	Throughput float64 // committed MTXs per simulated second
	Relative   float64 // throughput over the 1-shard baseline
}

// FigSRow is one benchmark/core-count sweep over FigSShards.
type FigSRow struct {
	Bench string
	Cores int
	Cells []FigSCell
}

// RunFigureS measures one Figure S row: one job per shard count.
func (r *Runner) RunFigureS(b *workloads.Benchmark, in workloads.Input, cores int) (FigSRow, error) {
	in = figSInput(in)
	cores = clampCores(b, in, cores)
	row := FigSRow{Bench: b.Name, Cores: cores}
	var specs []job.Spec
	for _, shards := range FigSShards {
		specs = append(specs, figSJob(b.Name, in, cores, shards))
	}
	res, err := r.resolveAll(specs...)
	if err != nil {
		return row, err
	}
	tput := func(run engine.Result) float64 { return float64(run.Committed) / run.Elapsed.Seconds() }
	base := res[0]
	for i, shards := range FigSShards {
		if res[i].Checksum != base.Checksum {
			return row, fmt.Errorf("%s@%d shards=%d: checksum %#x != 1-shard %#x — sharding changed the computation",
				b.Name, cores, shards, res[i].Checksum, base.Checksum)
		}
		row.Cells = append(row.Cells, FigSCell{
			Shards:     shards,
			Throughput: tput(res[i]),
			Relative:   tput(res[i]) / tput(base),
		})
	}
	return row, nil
}

// RenderFigureS prints the commit-shard throughput table.
func RenderFigureS(rows []FigSRow) string {
	header := []string{"benchmark", "cores"}
	for _, shards := range FigSShards {
		header = append(header, fmt.Sprintf("%d shard(s)", shards))
	}
	tb := stats.Table{Header: header}
	for _, r := range rows {
		cells := []string{r.Bench, fmt.Sprint(r.Cores)}
		for _, c := range r.Cells {
			cells = append(cells, fmt.Sprintf("%.0f/s (%.2fx)", c.Throughput, c.Relative))
		}
		tb.AddRow(cells...)
	}
	return "Figure S: committed-MTX throughput vs commit shards, 64x16-core cluster (every cell reproduces the 1-shard checksum)\n" + tb.String()
}
