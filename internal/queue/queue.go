// Package queue implements DSMTX's batched message queues (§4.2, §5.3).
//
// Pipelined execution is insensitive to communication latency but very
// sensitive to the per-datum send/receive overhead: one OpenMPI send/receive
// pair costs 500–2,295 instructions. A DSMTX queue therefore buffers
// produced values on the sender and issues one MPI message per full batch,
// amortizing the call overhead across many values — the paper measures
// 480.7 MB/s through the queue against 13.1 MB/s for raw MPI_Send. The
// queue owns its buffer space, unlike MPI_Bsend, so producers never manage
// buffers.
//
// Batches carry an epoch number; misspeculation recovery bumps the epoch on
// both ports, making every in-flight batch from the aborted execution
// self-discarding — that is the "flush the message queues" step of §4.3 in
// a form that is robust to messages still in the network.
//
// In-flight batches are unbounded: the decoupling between workers and the
// commit unit is the point of the design.
//
// A batch's lifecycle: it belongs to the sender until Send, to the receiver
// from delivery until admit has copied its items into the port's own
// receive buffer, and to the queue's free list after that, from which the
// sender takes it for a later flush — so a steady stream allocates nothing.
// The free list is a bounded channel (freeBatches) on the Queue, so only a
// receiver in the sender's process can recycle. On net, a batch that crosses
// daemons is encoded by the writer goroutine after Send returns and the
// receiver gets a decoded copy, so the sender never sees the original again
// and the copy recycles into the receiving daemon's Queue. Abort on either
// port recycles what it discards.
//
// Queues inherit reliability from the layer below: every platform delivers
// each batch exactly once and in order, and injected faults only delay
// deliveries, so batch FIFO order and epoch discard hold under them.
package queue

import (
	"fmt"

	"dsmtx/internal/mpi"
	"dsmtx/internal/platform"
	"dsmtx/internal/trace"
)

// Config tunes a queue.
type Config struct {
	// BatchBytes is the flush threshold: a send is issued once the pending
	// batch reaches this many wire bytes. 0 or negative means every produce
	// flushes immediately — the "NonOptimized" configuration of Fig. 5(b).
	BatchBytes int
	// ProduceInstr/ConsumeInstr are the CPU instructions charged per
	// produce/consume into/out of the local buffer.
	ProduceInstr int64
	ConsumeInstr int64
}

// DefaultConfig returns the optimized configuration: 4 KiB batches and light
// per-operation costs (a handful of instructions to append to a local
// buffer).
func DefaultConfig() Config {
	return Config{
		BatchBytes:   4096,
		ProduceInstr: 45,
		ConsumeInstr: 45,
	}
}

// Unoptimized returns cfg altered to flush on every produce, modelling
// direct MPI_Send per datum for the Fig. 5(b) comparison.
func (c Config) Unoptimized() Config {
	c.BatchBytes = 0
	return c
}

// batch is the unit that crosses the network. It travels as *batch[T], so a
// flush boxes nothing and the receiver can hand it back (see the package
// comment's lifecycle).
type batch[T any] struct {
	epoch uint64
	items []T
	bytes int
}

const batchHeaderBytes = 32

// freeBatches bounds a queue's free list. A receiver recycles every batch it
// admits and the sender takes one back per flush, so the list has to hold
// what one receiver drain returns: the backlog. A pipeline edge flushes once
// per subTX, so its backlog is its consumer's lag in iterations, and at the
// start of every epoch core's live backends let the first stage lead by the
// run-ahead floor, 2·stride = 2·MarkerFlushIters·(P+1) = 32 iterations at the
// smallest layout (P = 1).
// A backlog that long recycles whole; past it the excess goes to the
// collector. (On the contracted host-recover job a bound of 8 left ≈ 15
// allocations per committed MTX, 32 leaves ≈ 7.) The list never holds more
// batches than were once in flight at the same time.
const freeBatches = 32

// Queue describes one unidirectional, typed channel between two ranks.
// Create it once, then bind a SendPort on the producing process and a
// RecvPort on the consuming process.
type Queue[T any] struct {
	name     string
	world    *mpi.World
	src, dst int
	tag      int
	cfg      Config
	size     func(T) int
	free     chan *batch[T] // spent batches on their way back to the sender

	// Instrumentation handles, resolved once by Instrument. All remain nil
	// on uninstrumented queues; every use is a nil-safe single branch, so
	// the disabled state adds zero allocations to Produce/Consume.
	tr         *trace.Tracer
	cProduced  *trace.Counter
	cConsumed  *trace.Counter
	hFlushFill *trace.Histogram
	hFlushWire *trace.Histogram
	hDrain     *trace.Histogram
	gOccupancy *trace.Gauge
}

// Instrument attaches a tracer: Produce/Consume bump shared counters,
// flushes record batch fill ("queue.flush.items"/"queue.flush.bytes") and a
// timeline instant on the sender's rank, batch admissions record drain size
// and an instant on the receiver's rank, and the sender's pending-item
// level drives the "queue.occupancy" gauge. Call before binding ports or
// traffic flows; a nil tracer is a no-op.
func (q *Queue[T]) Instrument(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	m := tr.Metrics()
	q.tr = tr
	q.cProduced = m.Counter("queue.produced")
	q.cConsumed = m.Counter("queue.consumed")
	q.hFlushFill = m.Histogram("queue.flush.items")
	q.hFlushWire = m.Histogram("queue.flush.bytes")
	q.hDrain = m.Histogram("queue.drain.items")
	q.gOccupancy = m.Gauge("queue.occupancy")
}

// New creates a queue from src to dst using tag. size reports the
// modelled wire size of an element; nil means 16 bytes (an address/value
// tuple).
func New[T any](world *mpi.World, name string, src, dst, tag int, cfg Config, size func(T) int) *Queue[T] {
	if size == nil {
		size = func(T) int { return 16 }
	}
	return &Queue[T]{name: name, world: world, src: src, dst: dst, tag: tag, cfg: cfg, size: size,
		free: make(chan *batch[T], freeBatches)}
}

// recycle returns a batch its receiver is done with to the free list, or to
// the collector when the list is full.
func (q *Queue[T]) recycle(b *batch[T]) {
	clear(b.items) // drop what the items reference
	b.items, b.bytes = b.items[:0], 0
	select {
	case q.free <- b:
	default:
	}
}

// SendPort is the producer's end. All methods must be called from the
// process owning comm.
type SendPort[T any] struct {
	q        *Queue[T]
	comm     *mpi.Comm
	epoch    uint64
	pending  *batch[T] // nil until the first Produce after a flush
	maxItems int       // largest batch flushed so far: a fresh batch's capacity
}

// Sender binds the producing process to the queue.
func (q *Queue[T]) Sender(comm *mpi.Comm) *SendPort[T] {
	if comm.Rank() != q.src {
		panic(fmt.Sprintf("queue %s: Sender rank %d, want %d", q.name, comm.Rank(), q.src))
	}
	return &SendPort[T]{q: q, comm: comm}
}

// Produce appends v to the pending batch, flushing if the batch is full.
func (s *SendPort[T]) Produce(v T) {
	cfg := s.q.cfg
	s.comm.Proc().Advance(s.q.world.InstrTime(cfg.ProduceInstr))
	b := s.pending
	if b == nil {
		b = s.fresh()
		s.pending = b
	}
	b.items = append(b.items, v)
	b.bytes += s.q.size(v)
	s.q.cProduced.Inc()
	s.q.gOccupancy.Set(int64(len(b.items)))
	if b.bytes >= cfg.BatchBytes {
		s.Flush()
	}
}

// fresh takes a spent batch off the free list, or allocates one sized for
// the largest batch this port has flushed.
func (s *SendPort[T]) fresh() *batch[T] {
	select {
	case b := <-s.q.free:
		return b
	default:
		return &batch[T]{items: make([]T, 0, s.maxItems)}
	}
}

// Flush transmits the pending batch, if any. DSMTX calls it at subTX ends so
// uncommitted values reach later stages promptly.
func (s *SendPort[T]) Flush() {
	b := s.pending
	if b == nil {
		return
	}
	s.pending = nil
	// Read everything off b before Send: from then on it is the receiver's.
	n, wire := len(b.items), b.bytes+batchHeaderBytes
	s.maxItems = max(s.maxItems, n)
	b.epoch = s.epoch
	s.comm.SendClass(s.q.dst, s.q.tag, b, wire, platform.ClassQueue)
	s.q.hFlushFill.Observe(int64(n))
	s.q.hFlushWire.Observe(int64(wire))
	s.q.tr.Instant(trace.InstFlush, s.comm.Rank(), 0, int64(n), int64(wire))
}

// Abort discards the pending batch and advances to the given epoch; any
// batch already in flight becomes stale.
func (s *SendPort[T]) Abort(epoch uint64) {
	if s.pending != nil {
		s.q.recycle(s.pending)
		s.pending = nil
	}
	s.epoch = epoch
}

// RecvPort is the consumer's end.
type RecvPort[T any] struct {
	q    *Queue[T]
	comm *mpi.Comm
	box  platform.Mailbox // cached mailbox handle for the poll path
	// batched marks a concurrent platform (host): several batches can be
	// pending at once, so TryConsumeBatch drains the whole mailbox backlog
	// in one call instead of admitting one message per call. On vtime the
	// per-message path is kept so the charge sequence stays bit-identical.
	batched bool
	msgBuf  []platform.Message // reusable drain buffer (batched only)
	epoch   uint64
	// buf holds admitted items of the current epoch, copied out of their
	// batches; buf[pos:] is not consumed yet. The port owns it and reuses it
	// once it is spent.
	buf []T
	pos int
}

// Receiver binds the consuming process to the queue.
func (q *Queue[T]) Receiver(comm *mpi.Comm) *RecvPort[T] {
	if comm.Rank() != q.dst {
		panic(fmt.Sprintf("queue %s: Receiver rank %d, want %d", q.name, comm.Rank(), q.dst))
	}
	return &RecvPort[T]{
		q: q, comm: comm,
		box:     comm.Endpoint().Mailbox(q.src, q.tag),
		batched: q.world.Platform().Concurrent(),
	}
}

// Consume blocks until a value of the current epoch is available and
// returns it. Stale-epoch batches are discarded silently.
func (r *RecvPort[T]) Consume() T {
	cfg := r.q.cfg
	r.comm.Proc().Advance(r.q.world.InstrTime(cfg.ConsumeInstr))
	for r.pos == len(r.buf) {
		msg := r.comm.Recv(r.q.src, r.q.tag)
		r.admit(msg)
	}
	v := r.buf[r.pos]
	r.pos++
	r.q.cConsumed.Inc()
	return v
}

// TryConsumeBatch returns every value currently buffered on the port — the
// remainder of the in-progress batch, or a newly arrived one — without
// blocking. It charges Consume's per-value cost for every value returned,
// but in a single Advance, so draining a batch costs one scheduler
// interaction instead of one per value. The
// returned slice is the port's internal buffer: it is valid until the next
// operation on the port and must not be retained.
func (r *RecvPort[T]) TryConsumeBatch() ([]T, bool) {
	if r.batched {
		if r.pos == len(r.buf) {
			r.drainAll()
		}
		if r.pos == len(r.buf) {
			return nil, false
		}
	}
	for r.pos == len(r.buf) {
		msg, ok := r.comm.TryRecvBox(r.box)
		if !ok {
			return nil, false
		}
		r.admit(msg)
	}
	out := r.buf[r.pos:]
	r.pos = len(r.buf)
	cfg := r.q.cfg
	r.comm.Proc().Advance(r.q.world.InstrTime(cfg.ConsumeInstr * int64(len(out))))
	r.q.cConsumed.Add(uint64(len(out)))
	return out, true
}

// drainAll takes every batch pending on the mailbox in one batch receive and
// admits each in order; stale batches discard as in admit.
func (r *RecvPort[T]) drainAll() {
	r.msgBuf = r.comm.TryRecvBoxBatch(r.box, r.msgBuf[:0])
	for i := range r.msgBuf {
		r.admit(r.msgBuf[i])
		r.msgBuf[i] = platform.Message{} // drop the payload reference
	}
}

// admit appends a delivered batch's items to the receive buffer, unless the
// batch is stale, and recycles the batch either way.
func (r *RecvPort[T]) admit(msg platform.Message) {
	b := msg.Payload.(*batch[T])
	if b.epoch == r.epoch {
		if r.pos == len(r.buf) {
			r.reset() // spent: reuse it from the start
		}
		r.buf = append(r.buf, b.items...)
		r.q.hDrain.Observe(int64(len(b.items)))
		r.q.tr.Instant(trace.InstDrain, r.comm.Rank(), 0, int64(len(b.items)), 0)
	} // else stale speculative state from before a recovery
	r.q.recycle(b)
}

// Abort discards buffered and pending input and advances to the given
// epoch: the receiver half of the recovery-time queue flush.
func (r *RecvPort[T]) Abort(epoch uint64) {
	r.reset()
	for {
		msg, ok := r.box.TryRecv()
		if !ok {
			break
		}
		r.q.recycle(msg.Payload.(*batch[T]))
	}
	r.epoch = epoch
}

// reset empties the receive buffer, keeping its storage but not what its
// items reference. Everything past len was cleared by an earlier reset.
func (r *RecvPort[T]) reset() {
	clear(r.buf)
	r.buf, r.pos = r.buf[:0], 0
}
