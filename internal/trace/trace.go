// Package trace is the observability layer under DSMTX: a span/event tracer
// recording per-rank timelines, a registry of named counters/gauges/
// histograms, and a stall-attribution report for the pipeline-balance
// summary.
//
// The tracer is backend-agnostic through the Clock abstraction. On the
// virtual-time backend everything is measured in virtual time and recorded
// deterministically — tracing a run never schedules events, never advances
// the clock, and never changes decision points, so a traced run's
// virtual-time outcome is bit-identical to an untraced one (pinned by
// determinism tests). On the host backend (BindWall) spans carry monotonic
// wall time and recording goes through fixed-size per-track lock-free
// buffers — an atomic cursor claim and a slot store, no mutex and no
// allocation — with overflow counted rather than grown, so concurrent
// goroutines can record from delivery hot paths. The other direction of the
// invariant is just as binding: a nil *Tracer is the disabled state, and
// every hook throughout the runtime is a nil-check no-op, so tracing-off
// adds zero allocations to hot paths (pinned by the alloc-regression tests
// in internal/mem, internal/queue and internal/platform/host).
//
// Timelines are exported as Chrome trace-event JSON (see chrome.go):
// simulated ranks render as threads, nodes as processes, and nanoseconds
// (virtual or wall) as timestamps — loadable in Perfetto or chrome://tracing.
package trace

import (
	"sort"
	"sync/atomic"

	"dsmtx/internal/sim"
)

// Kind labels a recorded span or instant event.
type Kind uint8

// Span and instant kinds. Spans have duration; Inst* events are points.
const (
	SpanSubTX         Kind = iota // a worker executed one subTX (V1 = stage)
	SpanValidate                  // the try-commit unit validated one MTX (V1 = verdict)
	SpanCommit                    // group commit of one MTX (V1 = entries, V2 = bulk bytes)
	SpanCOA                       // one Copy-On-Access fault round trip (MTX = page, V1 = pages, V2 = wire bytes)
	SpanRecvWait                  // a blocking message receive (V1 = tag)
	SpanRecovery                  // one rank's whole recovery window (MTX = restart iteration)
	SpanERM                       // recovery: enter-recovery-mode barrier (commit unit)
	SpanFLQ                       // recovery: flush-queues barrier (commit unit)
	SpanSEQ                       // recovery: sequential re-execution (commit unit)
	SpanRFP                       // recovery: refill-pipeline, resume to next commit (commit unit)
	InstFlush                     // a queue batch left the sender (V1 = items, V2 = wire bytes)
	InstDrain                     // a queue batch was drained by the consumer (V1 = items)
	InstMisspec                   // a misspeculation marker was emitted (MTX = iteration)
	SpanPageServe                 // a commit unit's page server served one COA request (MTX = start page, V1 = pages, V2 = wire bytes)
	SpanRecvPark                  // host delivery: a receiver parked awaiting a message (V1 = tag)
	SpanShardCommit               // a non-coordinator participant shard applied its partition of an MTX (V1 = entries, V2 = bulk bytes)
	InstShardVote                 // a participant shard sent its ordered 2PC vote (MTX = iteration, V1 = coordinator shard)
	SpanShardVoteWait             // the coordinator shard awaited cross-shard votes (MTX = iteration, V1 = votes needed)
	numKinds
)

// kindMeta drives the Chrome export: event name, category, and the names of
// the V1/V2 args ("" = omit). mtxName is the args key for the MTX field
// ("" = omit).
var kindMeta = [numKinds]struct {
	name, cat       string
	mtxName, a1, a2 string
}{
	SpanSubTX:         {"subTX", "worker", "mtx", "stage", ""},
	SpanValidate:      {"validate", "trycommit", "mtx", "ok", ""},
	SpanCommit:        {"commit", "commit", "mtx", "entries", "bulk_bytes"},
	SpanCOA:           {"coa.fault", "mem", "page", "pages", "wire_bytes"},
	SpanRecvWait:      {"recv.wait", "mpi", "", "tag", ""},
	SpanRecovery:      {"recovery", "recovery", "restart", "", ""},
	SpanERM:           {"recovery.ERM", "recovery", "mtx", "", ""},
	SpanFLQ:           {"recovery.FLQ", "recovery", "mtx", "", ""},
	SpanSEQ:           {"recovery.SEQ", "recovery", "mtx", "", ""},
	SpanRFP:           {"recovery.RFP", "recovery", "mtx", "", ""},
	InstFlush:         {"queue.flush", "queue", "", "items", "bytes"},
	InstDrain:         {"queue.drain", "queue", "", "items", ""},
	InstMisspec:       {"misspec", "worker", "mtx", "", ""},
	SpanPageServe:     {"pagesrv.shard", "pagesrv", "page", "pages", "wire_bytes"},
	SpanRecvPark:      {"recv.park", "delivery", "", "tag", ""},
	SpanShardCommit:   {"commit.shard", "commit", "mtx", "entries", "bulk_bytes"},
	InstShardVote:     {"commit.shard.vote", "commit", "mtx", "coordinator", ""},
	SpanShardVoteWait: {"commit.shard.votewait", "commit", "mtx", "votes", ""},
}

// KnownEventNames reports every event name the Chrome exporter can emit
// for recorded spans/instants. External validators (tools/tracecheck) use
// it to reject unknown names without hard-coding the list.
func KnownEventNames() []string {
	out := make([]string, 0, int(numKinds))
	for k := Kind(0); k < numKinds; k++ {
		out = append(out, kindMeta[k].name)
	}
	return out
}

// String reports the kind's event name.
func (k Kind) String() string {
	if k < numKinds {
		return kindMeta[k].name
	}
	return "invalid"
}

// Event is one recorded timeline entry. Start == End denotes an instant.
// V1/V2 are kind-specific arguments (see the Kind constants).
type Event struct {
	Kind       Kind
	Track      int32 // timeline id: the simulated rank (or a synthetic id)
	Start, End sim.Time
	MTX        uint64
	V1, V2     int64
}

// trackInfo labels one timeline for export: Chrome pid (the cluster node)
// and thread name.
type trackInfo struct {
	pid  int
	name string
}

// Clock is the time source spans are stamped against: the virtual-time
// kernel on the vtime backend, the platform's monotonic wall clock on host.
// platform.Platform satisfies it directly (sim.Time aliases platform.Time).
type Clock interface {
	Now() sim.Time
}

// kernelClock adapts a simulation kernel to the Clock interface.
type kernelClock struct{ k *sim.Kernel }

func (c kernelClock) Now() sim.Time { return c.k.Now() }

// DefaultSpanBufCap is the per-track span-buffer capacity in wall-clock
// mode (BindWall with bufCap <= 0, which is what core passes): 16384
// events ≈ 900 KiB per track, allocated once at bind time.
const DefaultSpanBufCap = 1 << 14

// wallSpanFloor is the minimum wall-clock duration a RecvWait-style span
// must reach to be worth recording (see SpanFloor).
const wallSpanFloor sim.Time = 1000 // 1 µs

// spanRing is one track's fixed-size lock-free span buffer for wall-clock
// mode. Writers claim a slot with an atomic fetch-add and store the event;
// claims past capacity are counted as dropped instead of allocating. The
// buffer is read only after every recording goroutine has joined.
type spanRing struct {
	next    atomic.Uint64
	dropped atomic.Uint64
	buf     []Event
}

func (r *spanRing) put(ev Event) {
	i := r.next.Add(1) - 1
	if i >= uint64(len(r.buf)) {
		r.dropped.Add(1)
		return
	}
	r.buf[i] = ev
}

// Tracer records spans and events against a Clock. A nil *Tracer is valid
// and means "tracing disabled": every method is a no-op, so hooks cost a
// nil check and nothing else.
//
// A Tracer may observe several consecutive runs (chained invocations): each
// BindKernel/BindWall stitches the new clock after the previous run's end,
// so multi-invocation benchmarks export one continuous timeline.
//
// In wall-clock mode (BindWall) Span/Instant are safe for concurrent use by
// the goroutines of the tracks registered via SetTrack; everything else —
// binding, track registration, export — is single-threaded by construction
// (it happens between runs, after the platform's goroutines have joined).
type Tracer struct {
	clock  Clock
	base   sim.Time
	spans  bool
	events []Event
	tracks map[int32]trackInfo
	met    *Metrics

	// Wall-clock (concurrent) recording state; unused on vtime.
	wall      bool
	ringCap   int
	rings     []*spanRing // indexed by track id
	flushed   bool
	untracked atomic.Uint64 // wall-mode spans on tracks never registered
}

// New returns a tracer that records spans and metrics.
func New() *Tracer {
	return &Tracer{spans: true, tracks: make(map[int32]trackInfo), met: NewMetrics()}
}

// NewMetricsOnly returns a tracer that maintains the metrics registry but
// records no timeline events — for metrics reports without trace files.
func NewMetricsOnly() *Tracer {
	t := New()
	t.spans = false
	return t
}

// Enabled reports whether timeline recording is active.
func (t *Tracer) Enabled() bool { return t != nil && t.spans }

// Metrics returns the tracer's metric registry (nil for a nil tracer; the
// registry's lookup methods are nil-safe and return nil instruments).
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.met
}

// rebind stitches a new clock onto the timeline: subsequent timestamps are
// offset past the previous clock's final time, so chained invocations form
// one monotonic timeline.
func (t *Tracer) rebind(c Clock) {
	if t.clock != nil {
		t.base += t.clock.Now()
	}
	t.clock = c
}

// BindKernel attaches the tracer to a (new) kernel's virtual clock.
func (t *Tracer) BindKernel(k *sim.Kernel) {
	if t == nil {
		return
	}
	if k == nil {
		t.rebind(nil)
		return
	}
	t.rebind(kernelClock{k})
}

// BindWall attaches the tracer to a wall clock (the host platform) and
// switches recording to the concurrent per-track buffers. bufCap is the
// per-track span capacity in events; <= 0 means DefaultSpanBufCap. Buffers
// are allocated lazily by SetTrack and persist across rebinds, so chained
// invocations share one capacity budget per track.
func (t *Tracer) BindWall(c Clock, bufCap int) {
	if t == nil {
		return
	}
	t.rebind(c)
	t.wall = true
	if bufCap > 0 {
		t.ringCap = bufCap
	} else if t.ringCap == 0 {
		t.ringCap = DefaultSpanBufCap
	}
}

// Wall reports whether the tracer records against a wall clock.
func (t *Tracer) Wall() bool { return t != nil && t.wall }

// SpanFloor is the minimum duration a discretionary span (RecvWait) must
// reach to be recorded: 0 in virtual time, where any wait that advanced the
// clock is a modelled event worth keeping, and ~1 µs on the wall clock,
// where every blocking receive takes nonzero real time and recording them
// all would flood the fixed buffers with noise.
func (t *Tracer) SpanFloor() sim.Time {
	if t == nil || !t.wall {
		return 0
	}
	return wallSpanFloor
}

// SetTrack labels a timeline: pid groups tracks (the cluster node), name is
// the per-track label ("worker3", "commit", ...). In wall-clock mode it
// also allocates the track's span buffer, so registration must precede the
// track's first concurrent span.
func (t *Tracer) SetTrack(track, pid int, name string) {
	if t == nil {
		return
	}
	t.tracks[int32(track)] = trackInfo{pid: pid, name: name}
	if t.wall && t.spans && track >= 0 {
		for len(t.rings) <= track {
			t.rings = append(t.rings, nil)
		}
		if t.rings[track] == nil {
			t.rings[track] = &spanRing{buf: make([]Event, t.ringCap)}
		}
	}
}

// Now reports the tracer-relative time — the value to pass as a span's
// start. It returns 0 when recording is off, making the capture-then-record
// pattern free in the disabled state.
func (t *Tracer) Now() sim.Time {
	if t == nil || !t.spans || t.clock == nil {
		return 0
	}
	return t.base + t.clock.Now()
}

// record routes one event to its destination: the shared slice on vtime
// (single-threaded by construction), the track's lock-free buffer on wall.
func (t *Tracer) record(ev Event) {
	if !t.wall {
		t.events = append(t.events, ev)
		return
	}
	tr := int(ev.Track)
	if tr < 0 || tr >= len(t.rings) || t.rings[tr] == nil {
		t.untracked.Add(1)
		return
	}
	t.rings[tr].put(ev)
}

// Span records an interval from start (a value captured with Now) to the
// current clock time.
func (t *Tracer) Span(kind Kind, track int, start sim.Time, mtx uint64, v1, v2 int64) {
	if t == nil || !t.spans || t.clock == nil {
		return
	}
	t.record(Event{
		Kind: kind, Track: int32(track), Start: start, End: t.base + t.clock.Now(),
		MTX: mtx, V1: v1, V2: v2,
	})
}

// Instant records a zero-duration event at the current clock time.
func (t *Tracer) Instant(kind Kind, track int, mtx uint64, v1, v2 int64) {
	if t == nil || !t.spans || t.clock == nil {
		return
	}
	now := t.base + t.clock.Now()
	t.record(Event{
		Kind: kind, Track: int32(track), Start: now, End: now,
		MTX: mtx, V1: v1, V2: v2,
	})
}

// flush folds wall-mode buffers into the export slice, once: each track's
// events sorted by start time (stable, so equal starts keep record order),
// tracks in id order. Recording spans end at the time they are recorded, so
// nested spans land in the buffer before their enclosing span — the sort
// restores per-track start-time monotonicity for export. Must only be
// called after the recording goroutines have joined; a vtime tracer is
// untouched.
func (t *Tracer) flush() {
	if t == nil || !t.wall || t.flushed {
		return
	}
	t.flushed = true
	for _, r := range t.rings {
		if r == nil {
			continue
		}
		n := r.next.Load()
		if n > uint64(len(r.buf)) {
			n = uint64(len(r.buf))
		}
		evs := r.buf[:n]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		t.events = append(t.events, evs...)
	}
	if d := t.DroppedSpans(); d > 0 {
		t.met.Counter("trace.spans.dropped").Add(d)
	}
}

// DroppedSpans reports how many wall-mode events were discarded because a
// track's buffer filled (or its track was never registered).
func (t *Tracer) DroppedSpans() uint64 {
	if t == nil {
		return 0
	}
	d := t.untracked.Load()
	for _, r := range t.rings {
		if r != nil {
			d += r.dropped.Load()
		}
	}
	return d
}

// Events exposes the recorded timeline (tests and custom exporters). In
// wall-clock mode it flushes the per-track buffers first, so it must not be
// called while a run is still recording.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.flush()
	return t.events
}
