package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"dsmtx/internal/platform"
)

// fakeClock is a settable wall clock for wall-mode tests.
type fakeClock struct{ t platform.Time }

func (c *fakeClock) Now() platform.Time { return c.t }

func wallTracer(bufCap int) (*Tracer, *fakeClock) {
	tr := New()
	clk := &fakeClock{}
	tr.BindWall(clk, bufCap)
	return tr, clk
}

func TestBindWallRecordsThroughRings(t *testing.T) {
	tr, clk := wallTracer(0)
	if !tr.Wall() {
		t.Fatal("BindWall did not switch to wall mode")
	}
	if tr.SpanFloor() != wallSpanFloor {
		t.Fatalf("SpanFloor = %v, want %v", tr.SpanFloor(), wallSpanFloor)
	}
	tr.SetTrack(0, 0, "worker0")
	clk.t = 100
	start := tr.Now()
	clk.t = 400
	tr.Span(SpanRecvPark, 0, start, 0, 5, 0)
	clk.t = 500
	tr.Instant(InstFlush, 0, 0, 5, 2)
	ev := tr.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d, want 2", len(ev))
	}
	if ev[0].Start != 100 || ev[0].End != 400 || ev[0].Kind != SpanRecvPark {
		t.Fatalf("span = %+v", ev[0])
	}
	if ev[1].Start != 500 || ev[1].End != 500 {
		t.Fatalf("instant = %+v", ev[1])
	}
	if tr.DroppedSpans() != 0 {
		t.Fatalf("dropped = %d", tr.DroppedSpans())
	}
}

// TestBindWallStitchesInvocations mirrors the BindKernel stitch test: a
// second bind must offset new timestamps past the first clock's final time.
func TestBindWallStitchesInvocations(t *testing.T) {
	tr := New()
	c1 := &fakeClock{}
	tr.BindWall(c1, 0)
	tr.SetTrack(0, 0, "worker0")
	c1.t = 1000
	tr.Instant(InstFlush, 0, 0, 1, 0)

	c2 := &fakeClock{}
	tr.BindWall(c2, 0)
	c2.t = 10
	tr.Instant(InstFlush, 0, 0, 2, 0)

	ev := tr.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d, want 2", len(ev))
	}
	if ev[1].Start != 1000+10 {
		t.Fatalf("stitched start = %v, want 1010", ev[1].Start)
	}
}

// TestWallBufferOverflowCounted fills a tiny span buffer past capacity: the
// excess must be counted (DroppedSpans and the registry counter), never
// grown or blocked on, and the surviving events must be the first bufCap.
func TestWallBufferOverflowCounted(t *testing.T) {
	tr, clk := wallTracer(4)
	tr.SetTrack(0, 0, "worker0")
	for i := 0; i < 10; i++ {
		clk.t = platform.Time(i + 1)
		tr.Instant(InstFlush, 0, uint64(i), 0, 0)
	}
	if got := tr.DroppedSpans(); got != 6 {
		t.Fatalf("DroppedSpans = %d, want 6", got)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("events = %d, want 4 (buffer capacity)", len(ev))
	}
	for i, e := range ev {
		if e.MTX != uint64(i) {
			t.Fatalf("event %d has mtx %d: overflow displaced early events", i, e.MTX)
		}
	}
	if got := tr.Metrics().Counter("trace.spans.dropped").Value(); got != 6 {
		t.Fatalf("trace.spans.dropped = %d, want 6", got)
	}
}

// TestWallUntrackedSpanCounted: wall-mode events on tracks never registered
// have no buffer; they must be counted dropped, not crash or allocate.
func TestWallUntrackedSpanCounted(t *testing.T) {
	tr, clk := wallTracer(0)
	clk.t = 5
	tr.Instant(InstFlush, 42, 0, 0, 0)
	if got := tr.DroppedSpans(); got != 1 {
		t.Fatalf("DroppedSpans = %d, want 1", got)
	}
	if n := len(tr.Events()); n != 0 {
		t.Fatalf("untracked event was exported (%d events)", n)
	}
}

// TestWallFlushSortsPerTrack records nested spans (inner ends first, so it
// lands in the buffer before its enclosing span, start-time out of order):
// the flush must restore per-track start order while leaving cross-track
// grouping intact.
func TestWallFlushSortsPerTrack(t *testing.T) {
	tr, clk := wallTracer(0)
	tr.SetTrack(0, 0, "worker0")
	tr.SetTrack(1, 0, "worker1")
	clk.t = 100
	outer := tr.Now()
	clk.t = 150
	inner := tr.Now()
	clk.t = 200
	tr.Span(SpanRecvWait, 0, inner, 0, 1, 0) // recorded first, starts later
	clk.t = 300
	tr.Span(SpanSubTX, 0, outer, 7, 0, 0) // recorded second, starts earlier
	clk.t = 50
	tr.Instant(InstFlush, 1, 0, 0, 0)
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("events = %d, want 3", len(ev))
	}
	if ev[0].Kind != SpanSubTX || ev[1].Kind != SpanRecvWait {
		t.Fatalf("track 0 not sorted by start: %+v then %+v", ev[0], ev[1])
	}
	if ev[2].Track != 1 {
		t.Fatalf("tracks interleaved after flush: %+v", ev[2])
	}
}

// TestWallConcurrentRecording hammers the per-track buffers from one
// goroutine per track (the host model: a track is written by its own rank's
// goroutine); every event must land, exactly once, on its own track, with
// the export sorted per track. Run with -race this is the data-race audit
// of the wall recording path.
func TestWallConcurrentRecording(t *testing.T) {
	const tracks, perTrack = 8, 500
	tr, clk := wallTracer(perTrack)
	for tk := 0; tk < tracks; tk++ {
		tr.SetTrack(tk, 0, "w")
	}
	clk.t = 1
	var wg sync.WaitGroup
	for tk := 0; tk < tracks; tk++ {
		tk := tk
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perTrack; i++ {
				tr.Instant(InstFlush, tk, uint64(i), 0, 0)
			}
		}()
	}
	wg.Wait()
	if d := tr.DroppedSpans(); d != 0 {
		t.Fatalf("dropped %d events with exactly-capacity buffers", d)
	}
	perTrackSeen := make(map[int32]int)
	for _, e := range tr.Events() {
		perTrackSeen[e.Track]++
	}
	for tk := int32(0); tk < tracks; tk++ {
		if perTrackSeen[tk] != perTrack {
			t.Fatalf("track %d exported %d events, want %d", tk, perTrackSeen[tk], perTrack)
		}
	}
}

// TestWallChromeTraceMarker pins the export format: wall traces carry the
// top-level "clock":"wall" key; vtime traces must not (their bytes are
// pinned by determinism tests elsewhere).
func TestWallChromeTraceMarker(t *testing.T) {
	tr, clk := wallTracer(0)
	tr.SetTrack(0, 0, "worker0")
	clk.t = 10
	start := tr.Now()
	clk.t = 2000
	tr.Span(SpanRecvPark, 0, start, 0, 1, 0)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Clock string `json:"clock"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("wall trace not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Clock != "wall" {
		t.Fatalf("clock = %q, want wall", doc.Clock)
	}

	vt := New()
	vt.BindKernel(kernelAt(t, 10))
	vt.SetTrack(0, 0, "worker0")
	vt.Span(SpanSubTX, 0, 0, 1, 0, 0)
	buf.Reset()
	if err := vt.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"clock"`) {
		t.Fatalf("vtime trace grew a clock marker:\n%s", buf.String())
	}
}

// TestMetricsWriteJSON pins the live-endpoint payload: one object with the
// three instrument families, values readable back.
func TestMetricsWriteJSON(t *testing.T) {
	m := NewMetrics()
	m.Counter("c").Add(3)
	m.Gauge("g").Set(7)
	m.Gauge("g").Set(2)
	m.Histogram("h").Observe(10)
	m.Histogram("h").Observe(30)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]struct {
			Value int64 `json:"value"`
			Max   int64 `json:"max"`
		} `json:"gauges"`
		Histograms map[string]struct {
			Count uint64  `json:"count"`
			Sum   int64   `json:"sum"`
			Mean  float64 `json:"mean"`
			Min   int64   `json:"min"`
			Max   int64   `json:"max"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Counters["c"] != 3 {
		t.Errorf("counter c = %d", doc.Counters["c"])
	}
	if g := doc.Gauges["g"]; g.Value != 2 || g.Max != 7 {
		t.Errorf("gauge g = %+v", g)
	}
	if h := doc.Histograms["h"]; h.Count != 2 || h.Sum != 40 || h.Min != 10 || h.Max != 30 {
		t.Errorf("histogram h = %+v", h)
	}
	// A nil registry still writes a valid empty document (the endpoint must
	// not 500 when metrics are disabled).
	buf.Reset()
	var nilm *Metrics
	if err := nilm.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil registry JSON invalid: %s", buf.String())
	}
}

// TestStallReportHostColumns: the host columns render only when the report
// carries host data, and Merge propagates both the flag and the columns.
func TestStallReportHostColumns(t *testing.T) {
	base := &StallReport{}
	base.Add(StallRow{Label: "worker0", Stage: "S0", Busy: 100})
	if got := base.Table().String(); strings.Contains(got, "park") {
		t.Fatalf("vtime report grew host columns:\n%s", got)
	}

	host := &StallReport{Host: true}
	host.Add(StallRow{Label: "worker0", Stage: "S0", Busy: 100, Park: 2500})
	host.Add(StallRow{Label: "pagesrv", Stage: "pagesrv", ShardQueue: 9})
	got := host.Table().String()
	for _, want := range []string{"park", "shard-q", "2.50us", "9"} {
		if !strings.Contains(got, want) {
			t.Errorf("host table missing %q:\n%s", want, got)
		}
	}

	// Merge into an empty aggregate: flag and values must survive, repeat
	// merges must sum Park and max ShardQueue.
	agg := &StallReport{}
	agg.Merge(host)
	agg.Merge(host)
	if !agg.Host {
		t.Fatal("Merge dropped the Host flag")
	}
	r := agg.Rows[0]
	if r.Park != 5000 {
		t.Fatalf("merged row = %+v, want Park 5000", r)
	}
	if agg.Rows[1].ShardQueue != 9 {
		t.Fatalf("merged shard queue = %d, want 9 (max, not sum)", agg.Rows[1].ShardQueue)
	}
	if got := agg.StageTable().String(); !strings.Contains(got, "park") {
		t.Fatalf("merged stage table missing host columns:\n%s", got)
	}
}
