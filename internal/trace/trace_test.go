package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dsmtx/internal/platform"
	"dsmtx/internal/sim"
)

// kernelAt builds a kernel and a proc parked at virtual time t.
func kernelAt(t *testing.T, at platform.Time) *sim.Kernel {
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) { p.Advance(at) })
	k.Run(0)
	return k
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.BindKernel(nil)
	tr.SetTrack(0, 0, "x")
	if tr.Now() != 0 {
		t.Fatal("nil tracer Now != 0")
	}
	tr.Span(SpanSubTX, 0, 0, 0, 0, 0)
	tr.Instant(InstFlush, 0, 0, 0, 0)
	if tr.Events() != nil {
		t.Fatal("nil tracer recorded events")
	}
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	m := tr.Metrics()
	if m != nil {
		t.Fatal("nil tracer has metrics")
	}
	// The whole instrument chain is nil-safe.
	m.Counter("c").Inc()
	m.Gauge("g").Set(3)
	m.Histogram("h").Observe(7)
	if m.Counter("c").Value() != 0 || m.Gauge("g").Max() != 0 || m.Histogram("h").Count() != 0 {
		t.Fatal("nil instruments accumulated values")
	}
	if got := m.Table().String(); !strings.Contains(got, "metric") {
		t.Fatalf("nil metrics table = %q", got)
	}
}

func TestMetricsOnlyRecordsNoSpans(t *testing.T) {
	tr := NewMetricsOnly()
	tr.BindKernel(kernelAt(t, 100))
	if tr.Enabled() {
		t.Fatal("metrics-only tracer reports spans enabled")
	}
	if tr.Now() != 0 {
		t.Fatal("metrics-only Now != 0")
	}
	tr.Span(SpanSubTX, 0, 0, 1, 2, 3)
	if len(tr.Events()) != 0 {
		t.Fatal("metrics-only tracer recorded a span")
	}
	tr.Metrics().Counter("x").Add(2)
	if tr.Metrics().Counter("x").Value() != 2 {
		t.Fatal("metrics-only counter lost the add")
	}
}

func TestSpanAndInstantTimestamps(t *testing.T) {
	tr := New()
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) {
		start := tr.Now()
		p.Advance(250)
		tr.Span(SpanValidate, 3, start, 7, 1, 0)
		p.Advance(50)
		tr.Instant(InstMisspec, 3, 8, 0, 0)
	})
	tr.BindKernel(k)
	k.Run(0)
	ev := tr.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d", len(ev))
	}
	if ev[0].Start != 0 || ev[0].End != 250 || ev[0].Track != 3 || ev[0].MTX != 7 {
		t.Fatalf("span = %+v", ev[0])
	}
	if ev[1].Start != 300 || ev[1].End != 300 {
		t.Fatalf("instant = %+v", ev[1])
	}
}

func TestBindKernelStitchesInvocations(t *testing.T) {
	tr := New()
	k1 := sim.NewKernel()
	tr.BindKernel(k1)
	k1.Spawn("p", func(p *sim.Proc) {
		p.Advance(1000)
		tr.Instant(InstFlush, 0, 0, 1, 1)
	})
	k1.Run(0)

	k2 := sim.NewKernel()
	tr.BindKernel(k2)
	k2.Spawn("p", func(p *sim.Proc) {
		p.Advance(10)
		tr.Instant(InstFlush, 0, 0, 2, 2)
	})
	k2.Run(0)

	ev := tr.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d", len(ev))
	}
	if ev[1].Start <= ev[0].Start {
		t.Fatalf("second invocation not stitched after first: %v then %v", ev[0].Start, ev[1].Start)
	}
	if ev[1].Start != 1000+10 {
		t.Fatalf("stitched start = %v, want 1010", ev[1].Start)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	tr := New()
	tr.SetTrack(0, 0, "worker0")
	tr.SetTrack(5, 1, `commit "quoted"`)
	k := sim.NewKernel()
	tr.BindKernel(k)
	k.Spawn("p", func(p *sim.Proc) {
		start := tr.Now()
		p.Advance(1234)
		tr.Span(SpanSubTX, 0, start, 42, 1, 0)
		tr.Instant(InstDrain, 5, 0, 9, 0)
		start = tr.Now()
		p.Advance(567)
		tr.Span(SpanCommit, 5, start, 42, 3, 4096)
	})
	k.Run(0)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var meta, complete, instants int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			if e["dur"] == nil {
				t.Fatalf("complete event missing dur: %v", e)
			}
		case "i":
			instants++
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	// 2 process_name + 2 thread_name + 2 sort_index.
	if meta != 6 || complete != 2 || instants != 1 {
		t.Fatalf("meta=%d complete=%d instants=%d\n%s", meta, complete, instants, buf.String())
	}
	if !strings.Contains(buf.String(), `"ts":1.234`) {
		t.Fatalf("sub-microsecond precision lost:\n%s", buf.String())
	}

	// Deterministic output: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := tr.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-export differs")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 1024, -5} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Min() != -5 || h.Max() != 1024 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	if h.Sum() != 0+1+2+3+1024-5 {
		t.Fatalf("sum = %d", h.Sum())
	}
}

func TestMetricsTableDeterministic(t *testing.T) {
	m := NewMetrics()
	m.Counter("b.count").Add(2)
	m.Counter("a.count").Inc()
	m.Gauge("g").Set(5)
	m.Gauge("g").Set(2)
	m.Histogram("h").Observe(10)
	got := m.Table().String()
	if !strings.Contains(got, "a.count") || !strings.Contains(got, "max 5") {
		t.Fatalf("table = %s", got)
	}
	if strings.Index(got, "a.count") > strings.Index(got, "b.count") {
		t.Fatalf("counters not sorted:\n%s", got)
	}
	if got != m.Table().String() {
		t.Fatal("table not deterministic")
	}
}

func TestStallReportTables(t *testing.T) {
	var r StallReport
	r.Add(StallRow{Track: 0, Label: "worker0", Stage: "S0", Busy: 600, Starvation: 400})
	r.Add(StallRow{Track: 1, Label: "worker1", Stage: "S0", Busy: 1000})
	r.Add(StallRow{Track: 2, Label: "commit", Stage: "commit", VerdictWait: 500, Recovery: 500})
	perRank := r.Table().String()
	for _, want := range []string{"worker0", "worker1", "commit", "60.0%"} {
		if !strings.Contains(perRank, want) {
			t.Fatalf("per-rank table missing %q:\n%s", want, perRank)
		}
	}
	byStage := r.StageTable().String()
	if !strings.Contains(byStage, "S0") || strings.Contains(byStage, "worker0") {
		t.Fatalf("stage table wrong:\n%s", byStage)
	}
	// S0 aggregates both workers: busy 1600 of 2000 = 80%.
	if !strings.Contains(byStage, "80.0%") {
		t.Fatalf("stage aggregation wrong:\n%s", byStage)
	}

	// Merge accumulates by label.
	var r2 StallReport
	r2.Add(StallRow{Track: 0, Label: "worker0", Stage: "S0", Busy: 400})
	r2.Add(StallRow{Track: 9, Label: "pagesrv", Stage: "pagesrv", Blocked: 10})
	r.Merge(&r2)
	if len(r.Rows) != 4 {
		t.Fatalf("merged rows = %d", len(r.Rows))
	}
	if r.Rows[0].Busy != 1000 {
		t.Fatalf("merged worker0 busy = %d", r.Rows[0].Busy)
	}
}
