// Mailboxes for the host backend.
//
// Each (rank, tag) mailbox is one unbounded FIFO: many producers (every
// sender on the tag), one consumer (a mailbox belongs to exactly one
// receiving rank). Producers append to the box's in slice under its mutex
// and bump an atomic count of it. The consumer reads its own out slice
// without a lock or a shared write and, once that is spent, swaps it for in
// under the same mutex, handing the spent (cleared) array back to the
// producers. An empty poll is one atomic
// load; TryRecv takes the lock once per backlog, and every later TryRecv
// until that backlog is spent is a pop from the consumer's own slice. A
// producer never blocks on the consumer, and the mutex keeps each
// producer's messages in send order.
//
// A receiver in blocking Recv spins through a bounded budget of polls
// (yielding the processor between attempts), then parks on its waiter's
// 1-token wake channel. Producers notify only when they observe the waiting
// flag — the empty→nonempty transition with a waiting consumer — so a busy
// consumer costs senders one atomic load, not a futex wake. The platform's
// down channel, closed on failure, unparks every blocked receiver so a dead
// peer cannot strand the rest. The same waiter and budget, one per endpoint,
// is endpoint.Idle.
package host

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dsmtx/internal/platform"
	"dsmtx/internal/trace"
)

// spinBudget is how many empty polls a wait (Recv or Idle) tolerates before
// parking. Each poll yields the processor, so the budget is a count of
// yields, never a wall-clock interval: runtime.Gosched yields only to this
// process's goroutines, and a time-bounded spin on a shared box holds cores
// that another process (a co-located daemon) needs.
const spinBudget = 64

// mailbox is one (rank, tag) receive queue.
type mailbox struct {
	e   *endpoint
	tag int // the box's message tag (delivery telemetry attribution)
	// from is the exact sender the tag's registrations named, AnySource
	// until one names a rank (see claim).
	from atomic.Int64

	mu sync.Mutex
	in []platform.Message // producers append here under mu
	n  atomic.Int64       // len(in), written only under mu: the consumer polls it

	out  []platform.Message // consumer-owned: the swapped-out backlog
	next int                // out[next:] is unread

	wait waiter // parks the consumer in Recv
}

func newMailbox(e *endpoint, tag int) *mailbox {
	b := &mailbox{e: e, tag: tag, wait: newWaiter()}
	b.from.Store(platform.AnySource)
	return b
}

// claim records from as the tag's one sender; AnySource claims nothing. It
// panics if an earlier registration named a different sender.
func (b *mailbox) claim(from int) {
	if from == platform.AnySource {
		return
	}
	had := b.from.Load()
	if had == int64(from) || had == platform.AnySource && b.from.CompareAndSwap(had, int64(from)) {
		return
	}
	panic(fmt.Sprintf("host: rank %d tag %d registered for sender %d, then for sender %d",
		b.e.rank, b.tag, b.from.Load(), from))
}

// enqueue delivers one message. It never blocks on the consumer. Safe for
// any number of concurrent producers.
func (b *mailbox) enqueue(msg platform.Message) {
	b.mu.Lock()
	b.in = append(b.in, msg)
	d := b.n.Add(1)
	b.mu.Unlock()
	tel := b.e.h.tel
	if tel != nil {
		tel.cEnq.Inc()
		tel.gDepth.Set(d)
	}
	b.wait.notify(tel)
}

// refill makes out hold the next unread messages, swapping in the
// producers' slice when out is spent. It reports false when the box is
// empty. Single-consumer only.
func (b *mailbox) refill() bool {
	if b.next < len(b.out) {
		return true
	}
	if b.n.Load() == 0 {
		return false
	}
	spent := b.out[:0]
	b.mu.Lock()
	b.out, b.in = b.in, spent
	b.n.Store(0)
	b.mu.Unlock()
	b.next = 0
	return true
}

// tryDequeue pops the oldest message. Single-consumer only.
func (b *mailbox) tryDequeue() (platform.Message, bool) {
	if !b.refill() {
		return platform.Message{}, false
	}
	msg := b.out[b.next]
	b.out[b.next] = platform.Message{}
	b.next++
	if tel := b.e.h.tel; tel != nil {
		tel.cDeq.Inc()
	}
	return msg, true
}

// Depth reports the queued backlog. Consumer only: exact between its own
// dequeues, an approximation while producers race it. Core's page server
// polls it for its queue depth gauge.
func (b *mailbox) Depth() int { return len(b.out) - b.next + int(b.n.Load()) }

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
	var spanT0 platform.Time
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
				e.parkNs.Add(d)
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
