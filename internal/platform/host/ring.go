// Lock-free mailbox for the host backend.
//
// Each (source, tag) mailbox is a bounded Vyukov-style ring buffer — multi-
// producer because several sender goroutines (and any-source aggregation)
// can target one box, single-consumer because a mailbox belongs to exactly
// one receiving rank. The common case — deliver, poll, drain — touches only
// atomics: no mutex, no cond, no channel operation. Two slow paths preserve
// the old mutex mailbox's semantics:
//
//   - Overflow. The protocol assumes unbounded mailboxes (any number of
//     queue batches may be in flight), so a full ring must not block or
//     drop. Producers that find the ring full append to a small
//     mutex-guarded overflow list and set ovSet; while ovSet is up, every
//     producer spills, so ring entries never overtake older overflow
//     entries. The consumer folds overflow back in — after one more ring
//     drain under the same lock, which orders any ring entries published
//     before a spill ahead of the spilled ones — and clears the flag.
//
//   - Parking. A receiver in blocking Recv spins through a bounded budget of
//     polls (yielding the processor between attempts), then parks on its
//     waiter's 1-token wake channel. Producers notify only when they observe
//     the waiting flag — the empty→nonempty transition with a waiting
//     consumer — so a busy consumer costs senders one atomic load, not a
//     futex wake. The platform's down channel, closed on failure, unparks
//     every blocked receiver so a dead peer cannot strand the rest. The same
//     waiter and budget, one per endpoint, is endpoint.Idle.
package host

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dsmtx/internal/platform"
	"dsmtx/internal/sim"
	"dsmtx/internal/trace"
)

const (
	// ringBits sizes the lock-free buffer: 2^8 = 256 messages per mailbox
	// before producers spill to the overflow list. The ring is not sized to
	// make spills rare: one traced 164.gzip scale-4 job on 5 host ranks
	// spilled 1,965 times, and the overflow list absorbs them.
	ringBits = 8
	ringSize = 1 << ringBits
	ringMask = ringSize - 1

	// spinBudget is how many empty polls a wait (Recv or Idle) tolerates
	// before parking. Each poll yields the processor, so the budget is a
	// count of yields, never a wall-clock interval: runtime.Gosched yields
	// only to this process's goroutines, and a time-bounded spin on a shared
	// box holds cores that another process (a co-located daemon) needs.
	spinBudget = 64
)

// cell is one ring slot. seq is the Vyukov sequence: slot i%ringSize is
// writable for ticket i when seq == i, readable when seq == i+1, and free
// for the next lap once the consumer stores i+ringSize.
type cell struct {
	seq atomic.Uint64
	msg platform.Message
}

// mailbox is one (source, tag) receive queue.
type mailbox struct {
	e   *endpoint
	tag int // the box's message tag (delivery telemetry attribution)
	// auto marks a box created by delivery before any receiver registered
	// it; any-source registration may fold such boxes in (see boxLocked).
	auto bool

	head  atomic.Uint64 // next ticket to consume; written only by the consumer
	tail  atomic.Uint64 // next ticket to produce; CAS-claimed by producers
	cells [ringSize]cell

	ovMu     sync.Mutex
	ovSet    atomic.Bool
	overflow []platform.Message

	wait waiter // parks the consumer in Recv
}

func newMailbox(e *endpoint, tag int, auto bool) *mailbox {
	b := &mailbox{e: e, tag: tag, auto: auto, wait: newWaiter()}
	for i := range b.cells {
		b.cells[i].seq.Store(uint64(i))
	}
	return b
}

// enqueue delivers one message. It never blocks: a full ring spills to the
// overflow list. Safe for any number of concurrent producers.
func (b *mailbox) enqueue(msg platform.Message) {
	tel := b.e.h.tel
	if b.ovSet.Load() {
		// Once one producer has spilled, all producers spill until the
		// consumer drains the list; otherwise a fresh ring entry could be
		// consumed ahead of an older overflow entry from the same sender.
		b.spill(msg)
		return
	}
	pos := b.tail.Load()
	for {
		c := &b.cells[pos&ringMask]
		seq := c.seq.Load()
		switch {
		case seq == pos:
			if b.tail.CompareAndSwap(pos, pos+1) {
				c.msg = msg
				c.seq.Store(pos + 1)
				if tel != nil {
					tel.cEnq.Inc()
					if d := int64(pos+1) - int64(b.head.Load()); d > 0 {
						tel.gDepth.Set(d)
					}
				}
				b.wait.notify(tel)
				return
			}
			if tel != nil {
				tel.cCAS.Inc()
			}
			pos = b.tail.Load()
		case seq < pos:
			// The consumer is a full lap behind this ticket: ring full.
			b.spill(msg)
			return
		default:
			// Another producer advanced tail past us; retry at the front.
			if tel != nil {
				tel.cCAS.Inc()
			}
			pos = b.tail.Load()
		}
	}
}

func (b *mailbox) spill(msg platform.Message) {
	b.ovMu.Lock()
	b.overflow = append(b.overflow, msg)
	depth := len(b.overflow)
	b.ovSet.Store(true)
	b.ovMu.Unlock()
	tel := b.e.h.tel
	if tel != nil {
		tel.cSpill.Inc()
		b.e.del.spills.Add(1)
		tel.tr.Instant(trace.InstRingSpill, b.e.rank, 0, int64(b.tag), int64(depth))
	}
	b.wait.notify(tel)
}

// tryDequeue pops the oldest available message. Single-consumer only.
func (b *mailbox) tryDequeue() (platform.Message, bool) {
	pos := b.head.Load()
	c := &b.cells[pos&ringMask]
	if c.seq.Load() == pos+1 {
		msg := c.msg
		c.msg = platform.Message{}
		c.seq.Store(pos + ringSize)
		b.head.Store(pos + 1)
		if tel := b.e.h.tel; tel != nil {
			tel.cDeq.Inc()
		}
		return msg, true
	}
	if b.ovSet.Load() {
		return b.unspill()
	}
	return platform.Message{}, false
}

// Depth reports the queued backlog: ring occupancy plus any overflow. Exact
// for the single consumer between its own dequeues; an approximation while
// producers race it. Core's page servers poll it for the per-shard queue
// depth gauge.
func (b *mailbox) Depth() int {
	d := int(int64(b.tail.Load()) - int64(b.head.Load()))
	if d < 0 {
		d = 0
	}
	if b.ovSet.Load() {
		b.ovMu.Lock()
		d += len(b.overflow)
		b.ovMu.Unlock()
	}
	return d
}

// unspill consumes from the overflow list. Acquiring ovMu synchronizes with
// every producer that spilled, which makes their earlier ring publications
// visible — so one more ring check under the lock keeps per-producer FIFO:
// a producer's ring entries are always consumed before its spilled ones.
func (b *mailbox) unspill() (platform.Message, bool) {
	tel := b.e.h.tel
	b.ovMu.Lock()
	pos := b.head.Load()
	c := &b.cells[pos&ringMask]
	if c.seq.Load() == pos+1 {
		msg := c.msg
		c.msg = platform.Message{}
		c.seq.Store(pos + ringSize)
		b.head.Store(pos + 1)
		b.ovMu.Unlock()
		if tel != nil {
			tel.cDeq.Inc()
		}
		return msg, true
	}
	if len(b.overflow) == 0 {
		b.ovSet.Store(false)
		b.ovMu.Unlock()
		return platform.Message{}, false
	}
	msg := b.overflow[0]
	b.overflow[0] = platform.Message{}
	b.overflow = b.overflow[1:]
	if len(b.overflow) == 0 {
		b.overflow = nil
		b.ovSet.Store(false)
	}
	b.ovMu.Unlock()
	if tel != nil {
		tel.cUnspill.Inc()
		tel.cDeq.Inc()
	}
	return msg, true
}

// Recv dequeues a message, spinning through the budget and then parking
// until one arrives. It unwinds with the kill sentinel if the platform has
// failed, so a dead peer cannot leave this process parked forever.
func (b *mailbox) Recv(platform.Proc) (platform.Message, bool) {
	var msg platform.Message
	b.wait.wait(b.e, b.tag, func() (ok bool) { msg, ok = b.tryDequeue(); return ok })
	return msg, true
}

// waiter is the one spin-then-park wait of this backend: a mailbox has one
// for Recv, an endpoint one for Idle. All wait accounting lives here, so
// the delivery metrics (host.recv.spin/park/wake, host.recv.park.ns, the
// recv.park span, RankDelivery) count both kinds of wait alike.
type waiter struct {
	// waiting is set by the consumer just before it parks on wake; a
	// producer that clears it sends the single wake token.
	waiting atomic.Bool
	wake    chan struct{}
}

func newWaiter() waiter { return waiter{wake: make(chan struct{}, 1)} }

// notify wakes a parked consumer. While the consumer is running (the common
// case) this is one atomic load.
func (w *waiter) notify(tel *telemetry) {
	if w.waiting.Load() && w.waiting.CompareAndSwap(true, false) {
		if tel != nil {
			tel.cWake.Inc()
		}
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// wait blocks endpoint e's consumer until ready reports true; ready must
// consume what it finds. It yield-polls ready spinBudget times, then parks;
// tag labels the recv.park span. Unwinds with the kill sentinel once the
// platform has failed.
func (w *waiter) wait(e *endpoint, tag int, ready func() bool) {
	h := e.h
	tel := h.tel
	for polls := 0; ; polls++ {
		if ready() {
			if tel != nil && polls > 0 {
				tel.cSpinHit.Inc()
			}
			return
		}
		if h.failed.Load() {
			panic(killSentinel{})
		}
		if polls == spinBudget {
			break
		}
		runtime.Gosched()
	}
	parked := false
	var parkT0 time.Time
	var spanT0 sim.Time
	for {
		// Publish intent to park, then re-check: a producer that published
		// after our last poll either sees waiting and sends the token, or
		// published before our store — this final check finds it. Either
		// way no wakeup is lost.
		w.waiting.Store(true)
		if ready() {
			w.waiting.Store(false)
			select {
			case <-w.wake: // drop a token raced in by a producer
			default:
			}
			if parked {
				// Wall time spent parked feeds the park-latency histogram,
				// the endpoint's stall attribution, and (when spans are on) a
				// recv.park span on the rank's track.
				d := time.Since(parkT0).Nanoseconds()
				tel.hParkNs.Observe(d)
				e.del.parkNs.Add(d)
				tel.tr.Span(trace.SpanRecvPark, e.rank, spanT0, 0, int64(tag), 0)
			}
			return
		}
		if h.failed.Load() {
			w.waiting.Store(false)
			panic(killSentinel{})
		}
		if tel != nil && !parked {
			parked = true
			tel.cPark.Inc()
			e.del.parks.Add(1)
			parkT0 = time.Now()
			spanT0 = tel.tr.Now()
		}
		select {
		case <-w.wake:
		case <-h.down:
		}
	}
}

// TryRecv dequeues a pending message without blocking.
func (b *mailbox) TryRecv() (platform.Message, bool) {
	return b.tryDequeue()
}

// TryRecvBatch appends every immediately available message to into and
// returns the extended slice. One call drains the whole ring (and any
// overflow), replacing a poll-per-message loop on the consumer side.
func (b *mailbox) TryRecvBatch(into []platform.Message) []platform.Message {
	for {
		msg, ok := b.tryDequeue()
		if !ok {
			return into
		}
		into = append(into, msg)
	}
}

// drainInto moves every queued message into dst in order. The caller must
// hold the endpoint write lock, which excludes concurrent producers; auto
// boxes never had a consumer, so the single-consumer rule holds too.
func (b *mailbox) drainInto(dst *mailbox) {
	for {
		msg, ok := b.tryDequeue()
		if !ok {
			return
		}
		dst.enqueue(msg)
	}
}
