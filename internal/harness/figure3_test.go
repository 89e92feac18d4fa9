package harness

import (
	"os"
	"strings"
	"testing"

	"dsmtx/internal/trace"
	"dsmtx/internal/workloads"
)

// TestFigure3ExecutionModel checks the traced timeline exhibits the
// paper's Fig. 3(c) properties: decoupled units trail the workers, commits
// happen in MTX order, and workers run ahead of the commit frontier.
func TestFigure3ExecutionModel(t *testing.T) {
	r, err := RunFigure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Events) == 0 {
		t.Fatal("no trace recorded")
	}
	var commits, validates, subtxs []trace.Event
	for _, e := range r.Events {
		switch e.Kind {
		case trace.SpanCommit:
			commits = append(commits, e)
		case trace.SpanValidate:
			validates = append(validates, e)
		case trace.SpanSubTX:
			subtxs = append(subtxs, e)
		}
	}
	if len(commits) != 10 || len(validates) != 10 {
		t.Fatalf("commits=%d validates=%d, want 10 each", len(commits), len(validates))
	}
	// Commits are in MTX order and each follows its validation.
	valAt := map[uint64]trace.Event{}
	for _, v := range validates {
		valAt[v.MTX] = v
	}
	for i, c := range commits {
		if c.MTX != uint64(i) {
			t.Fatalf("commit %d is MTX %d — out of order", i, c.MTX)
		}
		if c.End < valAt[c.MTX].End {
			t.Fatalf("MTX %d committed at %v before validation at %v", c.MTX, c.End, valAt[c.MTX].End)
		}
	}
	// Decoupling: some worker subTX for a later MTX finishes before an
	// earlier MTX commits ("Worker1 executing MTX_k while the commit unit
	// is still committing MTX_i, k > i").
	decoupled := false
	for _, s := range subtxs {
		for _, c := range commits {
			if s.MTX > c.MTX+1 && s.End < c.End {
				decoupled = true
			}
		}
	}
	if !decoupled {
		t.Fatal("no run-ahead observed: workers never outpaced the commit frontier")
	}
	out := RenderFigure3(r)
	for _, want := range []string{"Stage1", "Stage2", "TryCommit", "Commit unit"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestFigure3Golden pins the rendered timeline byte for byte. The testdata
// was generated from the core MTX event log this figure used to read, so it
// proves the Tracer-fed timeline is the same picture.
func TestFigure3Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/figure3.golden")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunFigure3()
	if err != nil {
		t.Fatal(err)
	}
	if got := RenderFigure3(r); got != string(want) {
		t.Fatalf("Figure 3 drifted from testdata/figure3.golden:\n%s", got)
	}
}

// TestManycoreComparison: the §7 machine runs the same programs; lower
// latency helps the latency-exposed TLS parallelization more than the
// latency-tolerant pipeline.
func TestManycoreComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("manycore sweep")
	}
	b, err := workloads.ByName("456.hmmer")
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunManycore(b, workloads.DefaultInput())
	if err != nil {
		t.Fatal(err)
	}
	if row.ManycoreDSMTX < 1 || row.ManycoreTLS < 1 {
		t.Fatalf("manycore runs did not speed up: %+v", row)
	}
	// TLS's relative deficit shrinks on the low-latency mesh.
	clusterGap := row.ClusterDSMTX / row.ClusterTLS
	manycoreGap := row.ManycoreDSMTX / row.ManycoreTLS
	if manycoreGap >= clusterGap {
		t.Fatalf("TLS should close the gap on-die: cluster D/T=%.2f manycore D/T=%.2f",
			clusterGap, manycoreGap)
	}
	if !strings.Contains(RenderManycore([]ManycoreRow{row}), "456.hmmer") {
		t.Error("render missing row")
	}
}
