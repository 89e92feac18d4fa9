// Package mpi provides an MPI-flavoured message-passing layer over the
// simulated cluster, charging per-call instruction overheads to virtual
// time.
//
// The paper measured that a single OpenMPI send/receive pair executes 500 to
// 2,295 instructions to move 8 bytes; those operational overheads — not wire
// bandwidth — are what limit fine-grained communication, and they are the
// reason DSMTX batches produces into larger messages (§4.2, Fig. 5b). The
// Cost fields reproduce that model.
//
// Reliability is below this layer, as it is below MPI on the paper's
// InfiniBand: every platform delivers each message exactly once and in
// order. The vtime schedule hook (cluster.Machine.SetExtraLatency) only
// delays deliveries, so the MPI semantics here — blocking receives,
// non-overtaking per (source, dest) pair — hold unchanged under it.
//
// Unlike MPI, a receive matches by tag alone: each rank has one mailbox
// per tag (platform.Endpoint), and a receive's source only names the tag's
// one sender. A barrier's arrivals share one tag and its release comes
// from the root only, so neither needs source matching, and a participant
// may arrive before the root has registered anything.
package mpi

import (
	"fmt"

	"dsmtx/internal/platform"
	"dsmtx/internal/trace"
)

// Cost models per-call CPU overheads in instructions. PerByte covers
// marshalling/copy work proportional to message size.
type Cost struct {
	Send    int64   // MPI_Send initiation + completion
	Bsend   int64   // MPI_Bsend: Send plus an extra user-buffer copy
	Isend   int64   // MPI_Isend initiation
	Wait    int64   // MPI_Wait completion for an Isend
	Recv    int64   // MPI_Recv
	PerByte float64 // instructions per payload byte (copies, packing)
}

// DefaultCost matches the paper's reported 500–2,295 instruction range for
// 8-byte transfers. Isend+Wait is costlier per datum, which is why the
// paper measured it as the slowest fine-grained primitive (8.1 MB/s vs
// 13.1 MB/s for MPI_Send).
func DefaultCost() Cost {
	return Cost{
		Send:    500,
		Bsend:   1900,
		Isend:   1300,
		Wait:    1660,
		Recv:    1790,
		PerByte: 0.25,
	}
}

// World is an MPI world: size ranks over an execution platform.
type World struct {
	p    platform.Platform
	cost Cost
}

// NewWorld wraps a platform with MPI call-cost accounting.
func NewWorld(p platform.Platform, cost Cost) *World {
	return &World{p: p, cost: cost}
}

// InstrTime converts an instruction count to platform time (zero on
// backends without instruction charging).
func (w *World) InstrTime(instructions int64) platform.Duration {
	return w.p.InstrTime(instructions)
}

// Comm binds one rank's endpoint to the process executing it. All blocking
// calls must be made by that process.
type Comm struct {
	w     *World
	ep    platform.Endpoint
	p     platform.Proc
	tr    *trace.Tracer
	track int
}

// Attach creates the communicator for rank, executed by process p.
func (w *World) Attach(rank int, p platform.Proc) *Comm {
	return &Comm{w: w, ep: w.p.Endpoint(rank), p: p}
}

// Rank reports this communicator's rank.
func (c *Comm) Rank() int { return c.ep.Rank() }

// Proc returns the platform process bound to this communicator.
func (c *Comm) Proc() platform.Proc { return c.p }

// Endpoint exposes the raw platform endpoint (for mailbox registration).
func (c *Comm) Endpoint() platform.Endpoint { return c.ep }

// SetTracer attaches a tracer: blocking receives that actually wait record
// SpanRecvWait on the given track. A nil tracer (the default) keeps every
// receive on the uninstrumented path.
func (c *Comm) SetTracer(tr *trace.Tracer, track int) {
	c.tr = tr
	c.track = track
}

func (c *Comm) charge(instr int64, bytes int) {
	total := instr + int64(float64(bytes)*c.w.cost.PerByte)
	c.p.Advance(c.w.p.InstrTime(total))
}

// Send performs a blocking standard-mode send: the caller pays the call
// overhead, then the message enters the network.
func (c *Comm) Send(to, tag int, payload any, bytes int) {
	c.charge(c.w.cost.Send, bytes)
	c.ep.Send(to, tag, payload, bytes)
}

// SendClass is Send with an explicit traffic class for bandwidth
// attribution (accounting only — cost and timing are identical to Send).
func (c *Comm) SendClass(to, tag int, payload any, bytes int, class platform.MsgClass) {
	c.charge(c.w.cost.Send, bytes)
	c.ep.SendClass(to, tag, payload, bytes, class)
}

// Bsend performs a buffered send: like Send plus a buffer-copy overhead,
// but the DSMTX queue — not the caller — manages the buffer space.
func (c *Comm) Bsend(to, tag int, payload any, bytes int) {
	c.charge(c.w.cost.Bsend, bytes)
	c.ep.Send(to, tag, payload, bytes)
}

// Request is a handle for an outstanding immediate-mode operation.
type Request struct {
	c    *Comm
	done bool
}

// Isend initiates an immediate-mode send and returns a request to Wait on.
func (c *Comm) Isend(to, tag int, payload any, bytes int) *Request {
	c.charge(c.w.cost.Isend, bytes)
	c.ep.Send(to, tag, payload, bytes)
	return &Request{c: c}
}

// Wait completes an immediate-mode operation, paying its completion cost.
func (r *Request) Wait() {
	if r.done {
		return
	}
	r.done = true
	r.c.charge(r.c.w.cost.Wait, 0)
}

// Recv blocks until a message with the given tag arrives, then pays the
// receive overhead and returns it. from names the tag's one sender, or is
// platform.AnySource (see platform.Endpoint.Mailbox); it does not route.
func (c *Comm) Recv(from, tag int) platform.Message {
	start := c.tr.Now()
	msg := c.ep.Recv(c.p, from, tag)
	if c.tr.Enabled() && c.tr.Now() > start+c.tr.SpanFloor() {
		// Only waits that spent time get a span; instant matches would
		// render as zero-width noise. The floor is zero on vtime (any
		// virtual wait is meaningful) and ~1µs on the host wall clock,
		// where scheduler jitter would otherwise flood the span buffers.
		c.tr.Span(trace.SpanRecvWait, c.track, start, 0, int64(tag), 0)
	}
	c.charge(c.w.cost.Recv, msg.Bytes)
	return msg
}

// TryRecvBox receives a pending message from a mailbox handle obtained from
// Endpoint().Mailbox without blocking; the receive overhead is charged only
// on success. Poll loops cache the handle, so a poll never takes the
// endpoint's tag lookup.
func (c *Comm) TryRecvBox(box platform.Mailbox) (platform.Message, bool) {
	msg, ok := box.TryRecv()
	if ok {
		c.charge(c.w.cost.Recv, msg.Bytes)
	}
	return msg, ok
}

// Idle is the wait step of a poll loop over this rank's mailboxes (see
// platform.Endpoint.Idle); it charges no call overhead.
func (c *Comm) Idle(d platform.Duration) { c.ep.Idle(c.p, d) }

// Barrier tags must not collide with application tags; reserve a high range.
const (
	tagBarrierArrive  = 1 << 30
	tagBarrierRelease = 1<<30 + 1
)

// Barrier synchronizes the given ranks with real messages: everyone reports
// to the lowest rank, which then broadcasts a release. Its cost therefore
// scales with latency and participant count — exactly the ERM component of
// the paper's recovery-overhead breakdown.
func (c *Comm) Barrier(ranks []int) {
	if len(ranks) == 0 {
		panic("mpi: empty barrier")
	}
	root := ranks[0]
	for _, r := range ranks[1:] {
		if r < root {
			root = r
		}
	}
	if c.Rank() == root {
		for i := 0; i < len(ranks)-1; i++ {
			c.Recv(platform.AnySource, tagBarrierArrive)
		}
		for _, r := range ranks {
			if r != root {
				c.Send(r, tagBarrierRelease, nil, 8)
			}
		}
		return
	}
	c.Send(root, tagBarrierArrive, nil, 8)
	c.Recv(root, tagBarrierRelease)
}

// String aids debugging.
func (c *Comm) String() string { return fmt.Sprintf("mpi.Comm(rank=%d)", c.Rank()) }
