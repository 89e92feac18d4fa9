package trace

import (
	"fmt"

	"dsmtx/internal/platform"
	"dsmtx/internal/stats"
)

// StallRow attributes one rank's virtual time across the causes that matter
// for pipeline balance (§3.2 of the paper: speculation management must stay
// off the critical path, and Fig. 6's recovery cost is mostly pipeline
// refill — both diagnoses fall out of this split):
//
//	Busy         — executing work (subTX bodies, validation, commit apply)
//	Backpressure — waiting for a saturated downstream stage (occupancy routing)
//	Starvation   — polling an empty upstream queue
//	VerdictWait  — the commit unit waiting on a try-commit verdict
//	Recovery     — inside a misspeculation-recovery window (ERM/FLQ/SEQ
//	               plus refill stall)
//	Blocked      — parked on a message or synchronization primitive
type StallRow struct {
	Track int    // rank (or synthetic track id)
	Label string // "worker3", "trycommit0", "commit", "pagesrv"
	Stage string // aggregation key: "S0".."Sn", "trycommit", "commit", "pagesrv"

	Busy, Backpressure, Starvation, VerdictWait, Recovery, Blocked platform.Time

	// Host-delivery columns, populated only on the host backend (the report
	// renders them when StallReport.Host is set). Park is wall time the
	// rank's endpoint spent parked in mailbox waits — attributed at endpoint
	// granularity, so a commit rank's row includes its co-located page
	// server. ShardQueue is the high-water request backlog of the page
	// server (zero on other rows).
	Park       platform.Time
	ShardQueue int64
}

// Total is the row's accounted virtual time.
func (r *StallRow) Total() platform.Time {
	return r.Busy + r.Backpressure + r.Starvation + r.VerdictWait + r.Recovery + r.Blocked
}

// add accumulates o's columns into r: another invocation of the same rank,
// or another rank of the same stage. ShardQueue is a high-water mark.
func (r *StallRow) add(o *StallRow) {
	r.Busy += o.Busy
	r.Backpressure += o.Backpressure
	r.Starvation += o.Starvation
	r.VerdictWait += o.VerdictWait
	r.Recovery += o.Recovery
	r.Blocked += o.Blocked
	r.Park += o.Park
	r.ShardQueue = max(r.ShardQueue, o.ShardQueue)
}

// StallReport collects per-rank stall rows for one or more runs. Host marks
// a report carrying host-delivery data; its tables then grow the park /
// shard-q columns.
type StallReport struct {
	Rows []StallRow
	Host bool
}

// Add appends a row.
func (r *StallReport) Add(row StallRow) { r.Rows = append(r.Rows, row) }

// Merge accumulates another report into this one, matching rows by label
// (chained invocations of the same system layout).
func (r *StallReport) Merge(o *StallReport) {
	if o == nil {
		return
	}
	byLabel := make(map[string]int, len(r.Rows))
	for i := range r.Rows {
		byLabel[r.Rows[i].Label] = i
	}
	for _, row := range o.Rows {
		if i, ok := byLabel[row.Label]; ok {
			r.Rows[i].add(&row)
		} else {
			byLabel[row.Label] = len(r.Rows)
			r.Rows = append(r.Rows, row)
		}
	}
	r.Host = r.Host || o.Host
}

var stallHeader = []string{"rank", "total", "busy", "backpressure", "starvation", "verdict-wait", "recovery", "blocked"}

// hostHeader extends stallHeader with the host-delivery columns.
var hostHeader = []string{"park", "shard-q"}

// header builds the table header, swapping the first column's label and
// appending the host columns when the report carries host data.
func (r *StallReport) header(first string) []string {
	h := append([]string{first}, stallHeader[1:]...)
	if r.Host {
		h = append(h, hostHeader...)
	}
	return h
}

// Table renders the per-rank breakdown; each cause shows time and its share
// of the rank's total.
func (r *StallReport) Table() *stats.Table {
	t := &stats.Table{Header: r.header(stallHeader[0])}
	for i := range r.Rows {
		row := &r.Rows[i]
		t.AddRow(stallCells(row.Label, row, r)...)
	}
	return t
}

// StageTable renders the same breakdown aggregated by pipeline stage — the
// pipeline-balance summary dsmtxrun prints.
func (r *StallReport) StageTable() *stats.Table {
	t := &stats.Table{Header: r.header("stage")}
	agg := make(map[string]*StallRow)
	var order []string
	for i := range r.Rows {
		row := &r.Rows[i]
		a := agg[row.Stage]
		if a == nil {
			a = &StallRow{Stage: row.Stage, Label: row.Stage}
			agg[row.Stage] = a
			order = append(order, row.Stage)
		}
		a.add(row)
	}
	for _, stage := range order {
		t.AddRow(stallCells(stage, agg[stage], r)...)
	}
	return t
}

func stallCells(name string, r *StallRow, rep *StallReport) []string {
	total := r.Total()
	cell := func(v platform.Time) string {
		if total == 0 {
			return fmtDur(v)
		}
		return fmt.Sprintf("%s (%4.1f%%)", fmtDur(v), 100*float64(v)/float64(total))
	}
	cells := []string{
		name, fmtDur(total),
		cell(r.Busy), cell(r.Backpressure), cell(r.Starvation),
		cell(r.VerdictWait), cell(r.Recovery), cell(r.Blocked),
	}
	if rep.Host {
		cells = append(cells,
			fmtDur(r.Park),
			fmt.Sprintf("%d", r.ShardQueue))
	}
	return cells
}

// fmtDur renders virtual nanoseconds with a human unit.
func fmtDur(t platform.Time) string {
	switch {
	case t >= 1e9:
		return fmt.Sprintf("%.2fs", float64(t)/1e9)
	case t >= 1e6:
		return fmt.Sprintf("%.2fms", float64(t)/1e6)
	case t >= 1e3:
		return fmt.Sprintf("%.2fus", float64(t)/1e3)
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}
