package harness

import (
	"math"
	"strings"
	"testing"

	"dsmtx/internal/stats"
	"dsmtx/internal/workloads"
)

// TestFigure1LatencyTolerance reproduces the paper's Fig. 1 numbers
// exactly: at latency 1 both schedules run 2 cycles/iteration; at latency 2
// DOACROSS degrades to 3 while DSWP stays at 2.
func TestFigure1LatencyTolerance(t *testing.T) {
	r1 := RunFigure1(1)
	if math.Abs(r1.DOACROSS-2) > 0.05 || math.Abs(r1.DSWP-2) > 0.05 {
		t.Fatalf("latency 1: DOACROSS %.2f DSWP %.2f, want 2.0 / 2.0", r1.DOACROSS, r1.DSWP)
	}
	r2 := RunFigure1(2)
	if math.Abs(r2.DOACROSS-3) > 0.05 {
		t.Fatalf("latency 2: DOACROSS %.2f, want 3.0", r2.DOACROSS)
	}
	if math.Abs(r2.DSWP-2) > 0.05 {
		t.Fatalf("latency 2: DSWP %.2f, want 2.0 (latency tolerant)", r2.DSWP)
	}
	out := RenderFigure1([]Fig1Result{r1, r2})
	if !strings.Contains(out, "DOACROSS") {
		t.Fatalf("render: %q", out)
	}
}

// TestFigure1LatencyScaling: DSWP stays at 2 cycles/iter across a latency
// sweep while DOACROSS grows linearly — the core motivation of the paper.
func TestFigure1LatencyScaling(t *testing.T) {
	for _, lat := range []int{1, 2, 4, 8, 16} {
		r := RunFigure1(lat)
		if math.Abs(r.DSWP-2) > 0.1 {
			t.Errorf("latency %d: DSWP %.2f, want ~2", lat, r.DSWP)
		}
		want := float64(1 + lat) // A;B then wait for the token
		if lat == 1 {
			want = 2
		}
		if math.Abs(r.DOACROSS-want) > 0.1 {
			t.Errorf("latency %d: DOACROSS %.2f, want ~%.0f", lat, r.DOACROSS, want)
		}
	}
}

// TestMicroQueueBandwidth reproduces §5.3: batched queues sustain well over
// an order of magnitude more bandwidth than per-datum MPI primitives, and
// Isend is the slowest fine-grained primitive.
func TestMicroQueueBandwidth(t *testing.T) {
	r := RunMicroQueue()
	if r.QueueMBps < 150 {
		t.Errorf("queue bandwidth %.1f MB/s, want hundreds (paper: 480.7)", r.QueueMBps)
	}
	for name, v := range map[string]float64{"Send": r.SendMBps, "Bsend": r.BsendMBps, "Isend": r.IsendMBps} {
		if v < 4 || v > 40 {
			t.Errorf("MPI_%s bandwidth %.1f MB/s, want low double digits", name, v)
		}
	}
	if r.QueueMBps < 15*r.SendMBps {
		t.Errorf("queue/send ratio %.1f, want >= 15 (paper: ~37)", r.QueueMBps/r.SendMBps)
	}
	if r.IsendMBps >= r.SendMBps {
		t.Errorf("Isend (%.1f) should be slower than Send (%.1f), as the paper measures", r.IsendMBps, r.SendMBps)
	}
	if !strings.Contains(RenderMicro(r), "480.7") {
		t.Error("render missing paper reference value")
	}
}

// TestTable2Render checks the Table 2 inventory renders all 11 rows with
// the paper's paradigm notation.
func TestTable2Render(t *testing.T) {
	out := RenderTable2()
	for _, want := range []string{
		"052.alvinn", "Spec-DOALL", "130.li", "DSWP+[Spec-DOALL,S]",
		"164.gzip", "Spec-DSWP+[S,DOALL,S]", "456.hmmer", "Spec-DSWP+[DOALL,S]",
		"CFS,MVS,MV", "swaptions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

// TestFigure4ShapeClaims runs a reduced Fig. 4 sweep and asserts the
// paper's qualitative results hold per benchmark.
func TestFigure4ShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation sweep")
	}
	cores := []int{8, 64, 128}
	in := workloads.DefaultInput()
	results := map[string]Fig4Series{}
	for _, b := range workloads.All() {
		s, err := new(Runner).RunFigure4(b, in, cores)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		results[b.Name] = s
	}
	at := func(name string, core int) (d, tls float64) {
		s := results[name]
		for i, c := range s.Cores {
			if c == core {
				return s.DSMTX[i], s.TLS[i]
			}
		}
		t.Fatalf("%s: no data at %d cores", name, core)
		return 0, 0
	}

	// 052.alvinn / swaptions: TLS and DSMTX parallelizations coincide.
	for _, name := range []string{"052.alvinn", "swaptions"} {
		d, tls := at(name, 128)
		if math.Abs(d-tls)/d > 0.02 {
			t.Errorf("%s: D %.1f vs TLS %.1f should coincide", name, d, tls)
		}
	}
	// 130.li, 464.h264ref: TLS limited by synchronization; DSMTX far ahead.
	for _, name := range []string{"130.li", "464.h264ref"} {
		d, tls := at(name, 128)
		if d < 4*tls {
			t.Errorf("%s: D %.1f should dominate TLS %.1f (paper: TLS sync-bound)", name, d, tls)
		}
	}
	// 164.gzip: bandwidth-bound — the lowest DSMTX plateau of the suite.
	gz, _ := at("164.gzip", 128)
	for name := range results {
		if name == "164.gzip" {
			continue
		}
		d, _ := at(name, 128)
		if d < gz {
			t.Errorf("%s (%.1f) below gzip (%.1f); gzip should be the bandwidth-bound floor", name, d, gz)
		}
	}
	// 256.bzip2: TLS slightly better than Spec-DSWP (input streaming).
	d, tls := at("256.bzip2", 128)
	if tls <= d {
		t.Errorf("256.bzip2: TLS %.1f should beat Spec-DSWP %.1f (paper §5.2)", tls, d)
	}
	// 456.hmmer, blackscholes: DSMTX keeps scaling where TLS flattens.
	for _, name := range []string{"456.hmmer", "blackscholes"} {
		d64, t64 := at(name, 64)
		d128, t128 := at(name, 128)
		if d128 <= d64 {
			t.Errorf("%s: DSMTX should still scale 64→128 (%.1f → %.1f)", name, d64, d128)
		}
		if t128 > t64*1.15 {
			t.Errorf("%s: TLS should flatten past 64 cores (%.1f → %.1f)", name, t64, t128)
		}
	}
	// 197.parser: bandwidth becomes the bottleneck past ~64 cores.
	p64, _ := at("197.parser", 64)
	p128, _ := at("197.parser", 128)
	if p128 >= p64 {
		t.Errorf("197.parser: should decline past its peak (%.1f → %.1f)", p64, p128)
	}

	// Panel (l): geomeans. The paper reports 49x (DSMTX best) vs 15x (TLS).
	var series []Fig4Series
	for _, b := range workloads.All() {
		series = append(series, results[b.Name])
	}
	g := Geomean(series)
	last := len(g.Cores) - 1
	if g.Best[last] < 20 {
		t.Errorf("DSMTX-best geomean at 128 = %.1f, want >> 1 (paper: 49)", g.Best[last])
	}
	if g.TLS[last] < 5 {
		t.Errorf("TLS geomean at 128 = %.1f, want >> 1 (paper: 15)", g.TLS[last])
	}
	if g.Best[last] < 2.2*g.TLS[last] {
		t.Errorf("DSMTX-best/TLS = %.1f/%.1f = %.2f, want >= 2.2 (paper: ~3.3)",
			g.Best[last], g.TLS[last], g.Best[last]/g.TLS[last])
	}
	t.Logf("geomean at 128 cores: DSMTX %.1fx, TLS %.1fx, best %.1fx (paper: 49x / 15x)",
		g.DSMTX[last], g.TLS[last], g.Best[last])
}

// TestFigure5aBandwidthRanking: gzip's bandwidth requirement towers over
// the others, and bandwidth grows with core count (Fig. 5a).
func TestFigure5aBandwidthRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("bandwidth sweep")
	}
	in := workloads.DefaultInput()
	rows := map[string]Fig5aRow{}
	for _, name := range []string{"164.gzip", "256.bzip2", "blackscholes", "swaptions"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		row, err := new(Runner).RunFigure5a(b, in)
		if err != nil {
			t.Fatal(err)
		}
		rows[name] = row
	}
	// gzip transfers a similar volume to bzip2 but computes far less, so
	// its bandwidth requirement is much higher (the paper's explanation of
	// their different scalability).
	if rows["164.gzip"].KBps[0] < 1.5*rows["256.bzip2"].KBps[0] {
		t.Errorf("gzip bandwidth %.0f should clearly exceed bzip2 %.0f",
			rows["164.gzip"].KBps[0], rows["256.bzip2"].KBps[0])
	}
	// swaptions barely communicates.
	if rows["swaptions"].KBps[0] > rows["164.gzip"].KBps[0]/10 {
		t.Errorf("swaptions bandwidth %.0f should be tiny next to gzip %.0f",
			rows["swaptions"].KBps[0], rows["164.gzip"].KBps[0])
	}
	out := RenderFigure5a([]Fig5aRow{rows["164.gzip"]})
	if !strings.Contains(out, "164.gzip") {
		t.Error("render missing row")
	}
}

// TestFigure5bOptimizationEffect: batched communication beats per-datum
// MPI sends for benchmarks whose data is not already chunked (Fig. 5b).
func TestFigure5bOptimizationEffect(t *testing.T) {
	if testing.Short() {
		t.Skip("optimization sweep")
	}
	in := workloads.DefaultInput()
	// 197.parser forwards words individually: batching matters. 164.gzip
	// produces whole blocks: the paper notes it gains nothing.
	bParser, _ := workloads.ByName("197.parser")
	rowParser, err := new(Runner).RunFigure5b(bParser, in, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rowParser.Optimized < 1.5*rowParser.NonOptimized {
		t.Errorf("parser: optimized %.1f vs non %.1f, want >= 1.5x gain",
			rowParser.Optimized, rowParser.NonOptimized)
	}
	bGzip, _ := workloads.ByName("164.gzip")
	rowGzip, err := new(Runner).RunFigure5b(bGzip, in, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rowGzip.Optimized > 1.8*rowGzip.NonOptimized {
		t.Errorf("gzip: optimized %.1f vs non %.1f — already-chunked data should gain little",
			rowGzip.Optimized, rowGzip.NonOptimized)
	}
	out := RenderFigure5b([]Fig5bRow{rowParser, rowGzip})
	if !strings.Contains(out, "geomean") {
		t.Error("render missing geomean")
	}
}

// TestFigure6Recovery: with 0.1% misspeculation the run stays correct,
// recovery phases are measured, and RFP dominates the breakdown (Fig. 6).
func TestFigure6Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sweep")
	}
	in := workloads.DefaultInput()
	for _, name := range []string{"crc32", "blackscholes"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		row, err := new(Runner).RunFigure6(b, in, 0.01, 32)
		if err != nil {
			t.Fatal(err)
		}
		if row.Misspecs == 0 {
			t.Errorf("%s: no misspeculations at rate 1%%", name)
		}
		if row.MIS >= row.Clean {
			t.Errorf("%s: misspeculating run (%.1fx) should be slower than clean (%.1fx)",
				name, row.MIS, row.Clean)
		}
		if row.ERM <= 0 || row.SEQ <= 0 {
			t.Errorf("%s: recovery phases unmeasured: %+v", name, row)
		}
	}
}

// TestGeomeanHelper checks panel (l) math on synthetic series.
func TestGeomeanHelper(t *testing.T) {
	series := []Fig4Series{
		{Bench: "a", Cores: []int{8, 128}, DSMTX: []float64{2, 40}, TLS: []float64{2, 10}},
		{Bench: "b", Cores: []int{8, 128}, DSMTX: []float64{8, 10}, TLS: []float64{8, 40}},
	}
	g := Geomean(series)
	if math.Abs(g.DSMTX[1]-20) > 1e-9 { // sqrt(40*10)
		t.Fatalf("DSMTX geomean = %v", g.DSMTX[1])
	}
	if math.Abs(g.Best[1]-40) > 1e-9 { // sqrt(40*40)
		t.Fatalf("best geomean = %v", g.Best[1])
	}
	if got := stats.Geomean([]float64{40, 10}); math.Abs(got-20) > 1e-9 {
		t.Fatalf("stats.Geomean = %v", got)
	}
}
