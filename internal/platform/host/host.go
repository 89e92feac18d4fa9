// Package host executes the DSMTX runtime live on host threads: every
// platform process is a real goroutine, the clock is the wall clock, and
// messages move through one FIFO mailbox per (source, tag) (see
// mailbox.go) with no modelled latency, bandwidth, or instruction cost. The
// protocol above is identical to the vtime backend — same speculation,
// forwarding, validation, commit, and recovery paths — but interleaving is
// whatever the Go scheduler produces, so only protocol outcomes (committed
// MTX counts, output checksums) are reproducible, not timings.
//
// Deliberately unmodelled here: NIC serialization and latency (sends
// deliver immediately), per-instruction CPU charges (InstrTime is zero —
// real instructions already cost real time), and fault injection, which
// is vtime-only and which core.Config.Validate rejects for this backend.
// Observability is supported: SetTracer attaches the wall-clock tracer,
// instrumenting the delivery layer itself — mailbox enqueue/dequeue and
// depth, spin-vs-park outcomes, wake signals, park latency — with resolved
// atomic metric handles, so the instrumented hot path stays allocation-free
// and the tracer-nil path is one pointer check.
package host

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dsmtx/internal/platform"
	"dsmtx/internal/trace"
)

// killSentinel unwinds a blocked process goroutine after another process
// has failed, so Run can return instead of deadlocking.
type killSentinel struct{}

// Platform is a live-goroutine execution world.
type Platform struct {
	nodeOf func(int) int
	start  time.Time
	eps    []*endpoint
	wg     sync.WaitGroup

	// tel is the delivery-layer instrumentation (nil = uninstrumented; hot
	// paths pay one pointer check). Set before Spawn via SetTracer.
	tel *telemetry

	// remote, when set, diverts sends to ranks that are not local to this
	// process (nil = every rank is local; hot paths pay one pointer check).
	// Set before Spawn via SetRemote; the net backend installs it.
	remote *remoteHook

	failed   atomic.Bool
	down     chan struct{} // closed on first failure; unparks blocked receivers
	downOnce sync.Once
	failMu   sync.Mutex
	failure  error
}

// telemetry holds the tracer and its resolved metric handles for the
// delivery layer. Handles are atomic instruments resolved once here, so the
// mailbox hot paths never touch the registry's name map.
type telemetry struct {
	tr *trace.Tracer

	cEnq     *trace.Counter   // host.ring.enqueue: messages placed in a mailbox
	cDeq     *trace.Counter   // host.ring.dequeue: messages consumed
	cSpinHit *trace.Counter   // host.recv.spin: Recv/Idle waits satisfied within the spin budget
	cPark    *trace.Counter   // host.recv.park: Recv/Idle waits that parked
	cWake    *trace.Counter   // host.recv.wake: wake tokens sent to parked consumers
	gDepth   *trace.Gauge     // host.ring.depth: producer-side backlog at enqueue (max = high-water)
	hParkNs  *trace.Histogram // host.recv.park.ns: wall time per park
}

// SetTracer attaches the wall-clock tracer to the delivery layer. Must be
// called before Spawn (core binds it at System construction). A nil tracer
// leaves the platform on the uninstrumented path.
func (h *Platform) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	m := tr.Metrics()
	h.tel = &telemetry{
		tr:       tr,
		cEnq:     m.Counter("host.ring.enqueue"),
		cDeq:     m.Counter("host.ring.dequeue"),
		cSpinHit: m.Counter("host.recv.spin"),
		cPark:    m.Counter("host.recv.park"),
		cWake:    m.Counter("host.recv.wake"),
		gDepth:   m.Gauge("host.ring.depth"),
		hParkNs:  m.Histogram("host.recv.park.ns"),
	}
}

// remoteHook is the transport seam a distributed backend installs: local
// decides whether a destination rank lives in this process, send ships a
// fully-formed message (already accounted) to its owner.
type remoteHook struct {
	local func(rank int) bool
	send  func(msg platform.Message)
}

// SetRemote installs the remote-rank transport hook. Must be called before
// Spawn. Sends to ranks for which local reports false are handed to send
// after traffic accounting instead of being delivered to an in-process
// mailbox; messages arriving from other processes enter through Inject.
func (h *Platform) SetRemote(local func(rank int) bool, send func(msg platform.Message)) {
	h.remote = &remoteHook{local: local, send: send}
}

// Inject delivers a message that originated in another process into the
// destination rank's mailboxes, exactly as a local send would. Safe to call
// from any goroutine (transport readers call it concurrently).
func (h *Platform) Inject(msg platform.Message) {
	h.endpoint(msg.To).deliver(msg)
}

// Abort fails the platform from outside a proc — the transport calls it
// when a connection dies — unwinding every blocked receiver so Run returns
// the error instead of deadlocking on ranks that will never hear again.
func (h *Platform) Abort(err error) { h.fail(err) }

// RankDelivery reports a rank's endpoint-level delivery accounting: wall
// nanoseconds parked in Recv and Idle waits, zero unless a tracer is
// attached. Read after Run for the stall report's park column.
func (h *Platform) RankDelivery(rank int) (parkNs int64) {
	return h.endpoint(rank).parkNs.Load()
}

// New builds a host platform with the given number of rank endpoints.
// nodeOf assigns ranks to nodes for traffic attribution only (there is no
// placement-dependent timing on host); nil places every rank on node 0.
func New(ranks int, nodeOf func(int) int) *Platform {
	if ranks < 1 {
		panic(fmt.Sprintf("host: ranks = %d, need >= 1", ranks))
	}
	if nodeOf == nil {
		nodeOf = func(int) int { return 0 }
	}
	h := &Platform{nodeOf: nodeOf, start: time.Now(), down: make(chan struct{})}
	h.eps = make([]*endpoint, ranks)
	for r := range h.eps {
		h.eps[r] = &endpoint{h: h, rank: r, boxes: make(map[mbKey]*mailbox), idle: newWaiter()}
	}
	return h
}

// Endpoint returns the communication endpoint for a rank.
func (h *Platform) Endpoint(rank int) platform.Endpoint { return h.endpoint(rank) }

func (h *Platform) endpoint(rank int) *endpoint {
	if rank < 0 || rank >= len(h.eps) {
		panic(fmt.Sprintf("host: rank %d out of range [0,%d)", rank, len(h.eps)))
	}
	return h.eps[rank]
}

// InstrTime is zero on host: the instructions were really executed, so
// their cost is already in the wall clock.
func (h *Platform) InstrTime(int64) platform.Duration { return 0 }

// Spawn starts fn on its own goroutine immediately. A panic other than the
// internal unwind sentinel records the first failure and wakes every
// blocked process so Run can return it.
func (h *Platform) Spawn(name string, fn func(p platform.Proc)) {
	h.wg.Add(1)
	p := &proc{h: h}
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, killed := r.(killSentinel); !killed {
					h.fail(fmt.Errorf("host: process %q panicked: %v\n%s", name, r, debug.Stack()))
				}
			}
			h.wg.Done()
		}()
		fn(p)
	}()
}

// Run waits for every spawned process to finish. The horizon is ignored:
// wall time has no calendar to bound (callers wanting a wall-clock cap use
// test or command timeouts).
func (h *Platform) Run(platform.Duration) error {
	h.wg.Wait()
	h.failMu.Lock()
	defer h.failMu.Unlock()
	return h.failure
}

// Now reports wall-clock nanoseconds since the platform was created.
func (h *Platform) Now() platform.Time { return platform.Time(time.Since(h.start)) }

// Events is zero: there is no event calendar on host.
func (h *Platform) Events() uint64 { return 0 }

// Traffic sums the per-endpoint counters into a snapshot. Message and byte
// counts are real (delivery is reliable and immediate).
func (h *Platform) Traffic() platform.TrafficStats {
	var t platform.TrafficStats
	for _, e := range h.eps {
		s := &e.stats
		t.Messages += s.messages.Load()
		t.Bytes += s.bytes.Load()
		t.QueueMessages += s.queueMsgs.Load()
		t.QueueBytes += s.queueBytes.Load()
		t.PageMessages += s.pageMsgs.Load()
		t.PageBytes += s.pageBytes.Load()
		t.ControlMessages += s.ctrlMsgs.Load()
		t.ControlBytes += s.ctrlBytes.Load()
		t.IntraNodeBytes += s.intraBytes.Load()
		t.InterNodeBytes += s.interBytes.Load()
	}
	return t
}

// Concurrent is true: processes are real goroutines, so shared runtime
// state must be synchronized.
func (h *Platform) Concurrent() bool { return true }

// fail records the first failure and closes the down channel; every parked
// receiver's select wakes, re-checks failed, and panics with the unwind
// sentinel, draining the WaitGroup.
func (h *Platform) fail(err error) {
	h.failMu.Lock()
	if h.failure == nil {
		h.failure = err
	}
	h.failMu.Unlock()
	h.failed.Store(true)
	h.downOnce.Do(func() { close(h.down) })
}

// proc is a live goroutine's platform handle.
type proc struct{ h *Platform }

// Advance spends d of wall time asleep. Zero and negative durations (every
// instruction charge on host) return immediately. The failure check unwinds
// compute loops that would otherwise run on after another process died.
func (p *proc) Advance(d platform.Duration) {
	if p.h.failed.Load() {
		panic(killSentinel{})
	}
	if d <= 0 {
		return
	}
	time.Sleep(time.Duration(d))
}

// Now reports wall-clock time since the platform started.
func (p *proc) Now() platform.Time { return p.h.Now() }

// Advanced is zero: host processes have no charged busy time.
func (p *proc) Advanced() platform.Duration { return 0 }

// Blocked is zero: host processes have no accounted blocking time.
func (p *proc) Blocked() platform.Duration { return 0 }

type mbKey struct{ from, tag int }

// epStats is one endpoint's sender-side traffic accounting. Plain atomics:
// sends from different ranks touch different endpoints, so the old global
// stats mutex would have been the last cross-rank serialization point on
// the send path.
type epStats struct {
	messages   atomic.Uint64
	bytes      atomic.Uint64
	queueMsgs  atomic.Uint64
	queueBytes atomic.Uint64
	pageMsgs   atomic.Uint64
	pageBytes  atomic.Uint64
	ctrlMsgs   atomic.Uint64
	ctrlBytes  atomic.Uint64
	intraBytes atomic.Uint64
	interBytes atomic.Uint64
}

// endpoint is one rank's mailbox set. The RWMutex guards only the box map:
// delivery takes the read lock (many senders in parallel) and enqueues into
// the mailbox while still holding it, so an any-source migration
// (write lock) can never fold a box while a delivery into it is in flight —
// the message is either in the box before the fold drains it, or routed
// after the fold sees the new any-source box.
type endpoint struct {
	h     *Platform
	rank  int
	mu    sync.RWMutex
	boxes map[mbKey]*mailbox
	stats epStats
	// parkNs is wall time parked in Recv and Idle waits, counted only when
	// a tracer is attached (see Platform.RankDelivery).
	parkNs atomic.Int64

	// Idle's eventcount: delivered counts messages enqueued into any box of
	// this endpoint (bumped after the enqueue), seen is the count the single
	// polling consumer last returned from Idle with, and idle parks it.
	delivered atomic.Uint64
	seen      uint64
	idle      waiter
}

// Rank reports this endpoint's rank.
func (e *endpoint) Rank() int { return e.rank }

// Mailbox returns (creating if needed) the mailbox for (from, tag).
func (e *endpoint) Mailbox(from, tag int) platform.Mailbox {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.boxLocked(from, tag, false)
}

// boxLocked returns or creates the (from, tag) box; e.mu must be held for
// writing. Unlike vtime — where registration always happens before traffic
// because startup is cooperative — a host sender can race a receiver's
// any-source registration, parking early messages in auto-created exact
// boxes. When a receiver registers the any-source box for a tag, those
// stray boxes are drained into it and deleted, so neither the queued
// messages nor future sends from the same source can strand behind an
// exact match.
func (e *endpoint) boxLocked(from, tag int, auto bool) *mailbox {
	key := mbKey{from, tag}
	if b, ok := e.boxes[key]; ok {
		if !auto {
			b.auto = false
		}
		return b
	}
	b := newMailbox(e, tag, auto)
	if from == platform.AnySource {
		for k, eb := range e.boxes {
			if k.tag == tag && eb.auto {
				eb.drainInto(b)
				delete(e.boxes, k)
			}
		}
	}
	e.boxes[key] = b
	return b
}

// deliver routes a message exactly like the vtime endpoint: exact box if
// registered, else the any-source box for the tag, else a fresh exact box.
// The fast path — box already exists — runs under the read lock only.
func (e *endpoint) deliver(msg platform.Message) {
	e.mu.RLock()
	b, ok := e.boxes[mbKey{msg.From, msg.Tag}]
	if !ok {
		b, ok = e.boxes[mbKey{platform.AnySource, msg.Tag}]
	}
	if ok {
		b.enqueue(msg)
		e.mu.RUnlock()
	} else {
		e.mu.RUnlock()
		// No box yet: take the write lock and re-resolve — a racing receiver
		// may have registered (or another delivery auto-created) a box in the
		// gap, and enqueueing into a stale choice would strand the message.
		e.mu.Lock()
		b, ok = e.boxes[mbKey{msg.From, msg.Tag}]
		if !ok {
			b, ok = e.boxes[mbKey{platform.AnySource, msg.Tag}]
		}
		if !ok {
			b = e.boxLocked(msg.From, msg.Tag, true)
		}
		b.enqueue(msg)
		e.mu.Unlock()
	}
	e.delivered.Add(1)
	e.idle.notify(e.h.tel)
}

// Idle is the wait step of the rank's poll loop (platform.Endpoint.Idle):
// return at once if anything was delivered to this endpoint since the
// previous Idle returned, else yield-poll the delivery count through the
// spin budget, then park until the next delivery. The modelled back-off is
// ignored.
func (e *endpoint) Idle(platform.Proc, platform.Duration) {
	// Span tag -1: no one mailbox is waited on.
	e.idle.wait(e, -1, func() bool {
		d := e.delivered.Load()
		if d == e.seen {
			return false
		}
		e.seen = d
		return true
	})
}

// Send injects a message; delivery is immediate and reliable.
func (e *endpoint) Send(to, tag int, payload any, bytes int) {
	e.SendClass(to, tag, payload, bytes, platform.ClassControl)
}

// SendClass is Send with an explicit traffic class.
func (e *endpoint) SendClass(to, tag int, payload any, bytes int, class platform.MsgClass) {
	if bytes < 0 {
		panic("host: negative message size")
	}
	msg := platform.Message{From: e.rank, To: to, Tag: tag, Payload: payload, Bytes: bytes, Class: class}
	e.account(msg)
	if rh := e.h.remote; rh != nil && !rh.local(to) {
		rh.send(msg)
		return
	}
	e.h.endpoint(to).deliver(msg)
}

func (e *endpoint) account(msg platform.Message) {
	s := &e.stats
	s.messages.Add(1)
	s.bytes.Add(uint64(msg.Bytes))
	switch msg.Class {
	case platform.ClassQueue:
		s.queueMsgs.Add(1)
		s.queueBytes.Add(uint64(msg.Bytes))
	case platform.ClassPage:
		s.pageMsgs.Add(1)
		s.pageBytes.Add(uint64(msg.Bytes))
	default:
		s.ctrlMsgs.Add(1)
		s.ctrlBytes.Add(uint64(msg.Bytes))
	}
	if e.h.nodeOf(msg.From) == e.h.nodeOf(msg.To) {
		s.intraBytes.Add(uint64(msg.Bytes))
	} else {
		s.interBytes.Add(uint64(msg.Bytes))
	}
}

// Recv blocks until a matching message arrives.
func (e *endpoint) Recv(p platform.Proc, from, tag int) platform.Message {
	msg, ok := e.Mailbox(from, tag).Recv(p)
	if !ok {
		panic("host: mailbox closed")
	}
	return msg
}
