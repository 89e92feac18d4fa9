// Package stats provides the small numeric and formatting toolkit the
// benchmark harness uses: geometric means, speedup series, fixed-width
// tables and ASCII line charts for regenerating the paper's figures in a
// terminal.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Geomean returns the geometric mean of xs, ignoring non-positive values.
func Geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// MinMax returns the smallest and largest values of xs.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// Series is one named line of (x, y) points, x ascending.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table renders rows of columns with right-aligned numeric formatting.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns. Columns are sized to the
// widest row, so rows with more cells than the header still align.
func (t *Table) String() string {
	nCols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > nCols {
			nCols = len(row)
		}
	}
	widths := make([]int, nCols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, nCols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Plot renders series as an ASCII chart (the terminal stand-in for the
// paper's speedup graphs). Each series gets a marker; overlapping points
// show the later series' marker.
func Plot(title, xlabel, ylabel string, series []Series, width, height int) string {
	if width < 20 {
		width = 64
	}
	if height < 5 {
		height = 20
	}
	var xs, ys []float64
	for _, s := range series {
		xs = append(xs, s.X...)
		ys = append(ys, s.Y...)
	}
	if len(xs) == 0 {
		return title + ": (no data)\n"
	}
	xlo, xhi := MinMax(xs)
	_, yhi := MinMax(ys)
	ylo := 0.0 // speedup plots anchor at zero, like the paper's
	if yhi <= ylo {
		yhi = ylo + 1
	}
	if xhi <= xlo {
		xhi = xlo + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	markers := []byte{'*', '+', 'o', 'x', '#', '@'}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i := range s.X {
			col := int((s.X[i] - xlo) / (xhi - xlo) * float64(width-1))
			row := height - 1 - int((s.Y[i]-ylo)/(yhi-ylo)*float64(height-1))
			if row >= 0 && row < height && col >= 0 && col < width {
				grid[row][col] = m
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	for r, line := range grid {
		yval := ylo + (yhi-ylo)*float64(height-1-r)/float64(height-1)
		fmt.Fprintf(&b, "%8.1f |%s\n", yval, string(line))
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%8s  %-10.0f%*s\n", "", xlo, width-10, fmt.Sprintf("%.0f", xhi))
	fmt.Fprintf(&b, "%8s  x: %s, y: %s\n", "", xlabel, ylabel)
	return b.String()
}

// FormatSpeedup renders a speedup as the paper writes it ("49x").
func FormatSpeedup(s float64) string {
	if s >= 10 {
		return fmt.Sprintf("%.0fx", s)
	}
	return fmt.Sprintf("%.1fx", s)
}

// SortedKeys returns the sorted keys of a string-keyed map (deterministic
// report ordering).
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
