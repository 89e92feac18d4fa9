package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("Geomean(2,8) = %v", g)
	}
	if g := Geomean([]float64{5}); g != 5 {
		t.Fatalf("Geomean(5) = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("Geomean(nil) = %v", g)
	}
	if g := Geomean([]float64{-1, 0, 4}); g != 4 {
		t.Fatalf("Geomean ignoring non-positives = %v", g)
	}
}

func TestGeomeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		if len(xs) == 0 {
			return true
		}
		g := Geomean(xs)
		lo, hi := MinMax(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := Table{Header: []string{"name", "val"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "1234")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if len(lines[0]) != len(lines[2]) || len(lines[2]) != len(lines[3]) {
		t.Fatalf("misaligned table:\n%s", out)
	}
}

func TestTableWideRowsAlign(t *testing.T) {
	// Rows wider than the header must still participate in column sizing
	// and render aligned (regression: they were skipped entirely).
	tb := Table{Header: []string{"name", "val"}}
	tb.AddRow("alpha", "1", "extra-wide-cell", "9")
	tb.AddRow("beta", "22", "x", "1234")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("wide rows misaligned:\n%s", out)
	}
	// Separator spans all columns, so rows never extend past it.
	if len(lines[1]) < len(lines[2]) {
		t.Fatalf("separator shorter than widest row:\n%s", out)
	}
	col := strings.Index(lines[2], "extra-wide-cell")
	if col < 0 {
		t.Fatalf("missing cell:\n%s", out)
	}
	// The matching cell in the next row must be right-aligned to the same
	// column block: its last character lines up with the block end.
	end := col + len("extra-wide-cell")
	if lines[3][end-1] != 'x' {
		t.Fatalf("columns not aligned at %d:\n%s", end, out)
	}
}

func TestPlotContainsMarkersAndLabels(t *testing.T) {
	s := Series{Name: "Spec-DSWP"}
	s.Add(8, 4)
	s.Add(128, 60)
	out := Plot("Fig", "cores", "speedup", []Series{s, {Name: "TLS", X: []float64{8}, Y: []float64{2}}}, 60, 12)
	for _, want := range []string{"Fig", "Spec-DSWP", "TLS", "*", "+", "cores", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
}

func TestPlotEmpty(t *testing.T) {
	if out := Plot("t", "x", "y", nil, 40, 10); !strings.Contains(out, "no data") {
		t.Fatalf("empty plot = %q", out)
	}
}

func TestFormatSpeedup(t *testing.T) {
	if s := FormatSpeedup(49.2); s != "49x" {
		t.Fatalf("FormatSpeedup(49.2) = %q", s)
	}
	if s := FormatSpeedup(3.14); s != "3.1x" {
		t.Fatalf("FormatSpeedup(3.14) = %q", s)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("SortedKeys = %v", got)
	}
}
