package harness

import (
	"strings"
	"testing"

	"dsmtx/internal/workloads"
)

// TestFigureRResilience: every faulted run reproduces the sequential
// checksum, and the straggler and loss sweeps slow the run without
// corrupting it. crc32 keeps the test fast; the CLI sweep uses
// FigRBenches.
func TestFigureRResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience sweep")
	}
	b, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	row, err := new(Runner).RunFigureR(b, workloads.DefaultInput(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if row.Clean <= 1 {
		t.Errorf("clean speedup %.2f, want > 1", row.Clean)
	}
	if len(row.Drop) != len(FigRDropRates) {
		t.Fatalf("drop cells = %d, want %d", len(row.Drop), len(FigRDropRates))
	}
	worst := row.Drop[len(row.Drop)-1]
	if worst.Retrans == 0 {
		t.Errorf("1%% loss forced no retransmits")
	}
	if worst.Speedup > row.Clean {
		t.Errorf("lossy speedup %.2f exceeds clean %.2f", worst.Speedup, row.Clean)
	}
	if row.Straggler >= row.Clean {
		t.Errorf("straggler speedup %.2f should trail clean %.2f", row.Straggler, row.Clean)
	}
	out := RenderFigureR([]FigRRow{row})
	if !strings.Contains(out, "crc32") || !strings.Contains(out, "straggler") {
		t.Fatalf("render: %q", out)
	}
}
