package core

import (
	"dsmtx/internal/mpi"
	"dsmtx/internal/platform"
	"dsmtx/internal/queue"
)

// entryCursor adapts a RecvPort to batch draining: one TryConsumeBatch
// pulls every buffered entry at once — charging the same per-entry consume
// cost in a single Advance — and the drain loops then step through the
// buffer with no further scheduler interaction. A subTX boundary mid-batch
// simply leaves the remainder buffered for the next drain.
//
// Recovery must go through abort, which discards buffered entries (stale
// speculative state) along with the port's own state.
type entryCursor struct {
	port *queue.RecvPort[Entry]
	buf  []Entry
	pos  int
}

func newEntryCursor(port *queue.RecvPort[Entry]) *entryCursor {
	return &entryCursor{port: port}
}

// tryNext returns the next buffered entry, pulling a new batch from the
// port when the buffer is spent.
func (c *entryCursor) tryNext() (Entry, bool) {
	if c.pos < len(c.buf) {
		e := c.buf[c.pos]
		c.pos++
		return e, true
	}
	if b, ok := c.port.TryConsumeBatch(); ok {
		c.buf, c.pos = b, 1
		return b[0], true
	}
	c.buf, c.pos = nil, 0
	return Entry{}, false
}

// abort drops buffered entries and aborts the underlying port.
func (c *entryCursor) abort(epoch uint64) {
	c.buf, c.pos = nil, 0
	c.port.Abort(epoch)
}

// pollWait is the wait step every poll loop takes after a pass that found
// nothing: idle on the rank's endpoint for the current back-off — exactly
// that much virtual time under vtime; on the live backends spin-then-park
// until the next delivery to this rank, so a loop may only wait on
// conditions that arrive as messages to its own rank — then charge what the
// wait took on the rank's own clock (under vtime, the back-off) to the
// caller's stall buckets and double the back-off up to PollMax. Loops start
// *backoff at PollMin.
func (s *System) pollWait(comm *mpi.Comm, backoff *platform.Duration, buckets ...*platform.Duration) {
	d := *backoff
	start := comm.Proc().Now()
	comm.Idle(d)
	waited := comm.Proc().Now() - start
	for _, b := range buckets {
		*b += waited
	}
	if d < s.cfg.PollMax {
		*backoff = 2 * d
	}
}
