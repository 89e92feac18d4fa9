package sim

import "dsmtx/internal/platform"

// Chan is an unbounded FIFO mailbox between simulation processes. Push
// never blocks, so it may be called from kernel callbacks (e.g. a network
// delivering a message at a future instant); Recv blocks the receiving
// process until a value is buffered.
type Chan[T any] struct {
	name  string
	buf   []T
	recvQ []*Proc
}

// NewChan creates an empty channel; name appears in deadlock reports.
func NewChan[T any](name string) *Chan[T] {
	return &Chan[T]{name: name}
}

// Push enqueues v and wakes one blocked receiver.
func (c *Chan[T]) Push(v T) {
	c.buf = append(c.buf, v)
	if len(c.recvQ) > 0 {
		p := c.recvQ[0]
		c.recvQ = c.recvQ[1:]
		p.wake()
	}
}

// Recv dequeues a value, blocking p until one is available; ok is always
// true. The receiver must be a *Proc of the kernel that pushes to this
// channel; the platform.Proc parameter lets Chan[platform.Message] satisfy
// platform.Mailbox directly.
func (c *Chan[T]) Recv(p platform.Proc) (v T, ok bool) {
	pp := p.(*Proc)
	for len(c.buf) == 0 {
		c.recvQ = append(c.recvQ, pp)
		pp.park("recv " + c.name)
	}
	return c.TryRecv()
}

// TryRecv dequeues a value if one is buffered, never blocking.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if len(c.buf) == 0 {
		return v, false
	}
	v = c.buf[0]
	c.buf = c.buf[1:]
	return v, true
}
