package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"dsmtx/internal/stats"
)

// Metrics is a registry of named instruments. Handles are resolved once —
// at System construction or queue Instrument time — so hot paths hold
// *Counter/*Gauge/*Histogram pointers and never touch the name map.
//
// All instrument methods are nil-receiver-safe: a nil handle (from a nil
// registry) costs one branch, keeping disabled-tracing hot paths
// allocation-free. Instrument updates are atomic, so resolved handles may
// be driven from concurrent goroutines (the host backend); the registry map
// itself is mutex-guarded, so handles may also be resolved concurrently.
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter resolves (creating on first use) the named counter. Returns nil
// on a nil registry — safe to use, all ops no-op.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge resolves (creating on first use) the named gauge.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram resolves (creating on first use) the named histogram.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.histograms[name]
	if h == nil {
		h = &Histogram{}
		m.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level that also tracks its high-water mark.
// Under concurrent writers the current value is whichever Set landed last;
// the high-water mark is exact across all of them.
type Gauge struct {
	v, max atomic.Int64
}

func (g *Gauge) bumpMax(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.bumpMax(v)
}

// Add shifts the gauge's value by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.bumpMax(g.v.Add(d))
}

// Value reports the current level (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max reports the high-water mark (0 for nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bit-length i, i.e. [2^(i-1), 2^i). Bucket 0
// holds v <= 0.
const histBuckets = 40

// Histogram accumulates a distribution in fixed power-of-two buckets —
// no per-observation allocation, deterministic snapshots when driven
// single-threaded. Fields update atomically but independently, so a
// snapshot taken mid-run (the live metrics endpoint) may be a few
// observations skewed between count and sum; post-run reads are exact.
type Histogram struct {
	buckets  [histBuckets]atomic.Uint64
	count    atomic.Uint64
	sum      atomic.Int64
	min, max atomic.Int64 // presence-bit encoded (see encMM); 0 = no observation
}

// encMM/decMM pack an extreme value with a presence bit in the low bit, so
// the zero value of the atomic means "no observation yet" and first-observe
// races resolve with plain CAS. The value range shrinks to 63 bits — far
// beyond any duration or size observed here.
func encMM(v int64) int64 { return v<<1 | 1 }
func decMM(e int64) int64 { return e >> 1 }

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
		if b >= histBuckets {
			b = histBuckets - 1
		}
	}
	h.buckets[b].Add(1)
	for {
		e := h.min.Load()
		if (e != 0 && decMM(e) <= v) || h.min.CompareAndSwap(e, encMM(v)) {
			break
		}
	}
	for {
		e := h.max.Load()
		if (e != 0 && decMM(e) >= v) || h.max.CompareAndSwap(e, encMM(v)) {
			break
		}
	}
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the total of all observations (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean reports the arithmetic mean of observations (0 if none).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(h.count.Load())
}

// Min reports the smallest observation (0 if none).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	e := h.min.Load()
	if e == 0 {
		return 0
	}
	return decMM(e)
}

// Max reports the largest observation (0 if none).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	e := h.max.Load()
	if e == 0 {
		return 0
	}
	return decMM(e)
}

// Table renders the registry as a deterministic report: counters, gauges,
// then histograms, each sorted by name. Zero-valued instruments that were
// registered but never touched are still listed — absence of activity is
// itself a signal.
func (m *Metrics) Table() *stats.Table {
	t := &stats.Table{Header: []string{"metric", "value", "detail"}}
	if m == nil {
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range stats.SortedKeys(m.counters) {
		t.AddRow(name, fmt.Sprintf("%d", m.counters[name].Value()), "")
	}
	for _, name := range stats.SortedKeys(m.gauges) {
		g := m.gauges[name]
		t.AddRow(name, fmt.Sprintf("%d", g.Value()), fmt.Sprintf("max %d", g.Max()))
	}
	for _, name := range stats.SortedKeys(m.histograms) {
		h := m.histograms[name]
		detail := "-"
		if h.Count() > 0 {
			detail = fmt.Sprintf("mean %.1f min %d max %d", h.Mean(), h.Min(), h.Max())
		}
		t.AddRow(name, fmt.Sprintf("%d", h.Count()), detail)
	}
	return t
}

// WriteJSON renders a point-in-time snapshot of the registry as one JSON
// object (expvar-style), keyed by instrument family with names sorted
// alphabetically — the payload of dsmtxrun's -metrics-addr endpoint and of
// dsmtxd serve's GET /metrics. Safe to call while instruments are being
// updated.
func (m *Metrics) WriteJSON(w io.Writer) error {
	doc := map[string]any{
		"counters":   map[string]any{},
		"gauges":     map[string]any{},
		"histograms": map[string]any{},
	}
	if m != nil {
		counters := map[string]any{}
		gauges := map[string]any{}
		histograms := map[string]any{}
		m.mu.Lock()
		for name, c := range m.counters {
			counters[name] = c.Value()
		}
		for name, g := range m.gauges {
			gauges[name] = map[string]int64{"value": g.Value(), "max": g.Max()}
		}
		for name, h := range m.histograms {
			histograms[name] = map[string]any{
				"count": h.Count(), "sum": h.Sum(), "mean": h.Mean(),
				"min": h.Min(), "max": h.Max(),
			}
		}
		m.mu.Unlock()
		doc["counters"] = counters
		doc["gauges"] = gauges
		doc["histograms"] = histograms
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}
