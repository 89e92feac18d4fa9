// Package platform defines the execution-platform abstraction the DSMTX
// runtime runs against: a clock, processes, message endpoints with
// one mailbox per tag, and instruction-cost charging. The protocol
// layers above — core, queue, mpi, the COA page path — speak only these
// interfaces, so the same runtime executes on any of three backends: in
// deterministic virtual time (vtime: cluster.Machine, the simulated
// cluster on a sim kernel, is the platform), live on host threads
// (platform/host, real goroutines and wall-clock time), or across daemon
// processes (platform/net, host mailboxes joined by a TCP mesh). The
// paper's contribution is the runtime protocol, not the simulator; this
// package is the seam that keeps them separable, and it holds only what
// the runtime calls.
//
// The package also owns the vocabulary every backend shares: Time/Duration,
// Message, MsgClass, and TrafficStats. sim and cluster use these types
// directly, so one clock type flows unconverted between the simulator and
// the runtime layers above.
package platform

import "fmt"

// Time is a point on the platform clock in nanoseconds from the start of
// the run: virtual nanoseconds under vtime, wall-clock nanoseconds under
// host.
type Time int64

// Duration aliases Time for readability when a length of time is meant.
type Duration = Time

// Convenient time units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// String renders the time using the largest sensible unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// MsgClass labels a message's role for bandwidth attribution: the Fig. 5a
// harness and the metrics report split wire traffic into queue batches,
// Copy-On-Access page transfers, and everything else (control: verdicts
// travel in queues, but barriers, start/ctrl and occupancy acks are
// control).
type MsgClass uint8

// Message classes. The zero value is ClassControl, so untagged sends (the
// default path) count as control traffic.
const (
	ClassControl MsgClass = iota
	ClassQueue
	ClassPage
)

// Message is one unit of data in flight between ranks.
type Message struct {
	From, To int
	Tag      int
	Payload  any
	Bytes    int // modelled wire size; must be >= 0
	Class    MsgClass
}

// AnySource registers a tag's mailbox without naming its sender: the tag
// has several.
const AnySource = -1

// TrafficStats accumulates wire traffic for an entire run; the figure-5a
// bandwidth numbers divide these by execution time. The per-class fields
// are a breakdown of the same traffic: QueueBytes + PageBytes +
// ControlBytes == Bytes (and likewise for messages).
type TrafficStats struct {
	Messages       uint64
	Bytes          uint64
	InterNodeBytes uint64
	IntraNodeBytes uint64

	QueueMessages   uint64
	QueueBytes      uint64
	PageMessages    uint64
	PageBytes       uint64
	ControlMessages uint64
	ControlBytes    uint64
}

// Add accumulates another run's traffic into t (multi-invocation totals).
func (t *TrafficStats) Add(o TrafficStats) {
	t.Messages += o.Messages
	t.Bytes += o.Bytes
	t.InterNodeBytes += o.InterNodeBytes
	t.IntraNodeBytes += o.IntraNodeBytes
	t.QueueMessages += o.QueueMessages
	t.QueueBytes += o.QueueBytes
	t.PageMessages += o.PageMessages
	t.PageBytes += o.PageBytes
	t.ControlMessages += o.ControlMessages
	t.ControlBytes += o.ControlBytes
}

// Proc is the handle a runtime process uses to spend time. Under vtime it
// is a *sim.Proc (cooperative, virtual clock);
// under host it is a live goroutine's handle (Advance sleeps,
// busy/blocked accounting is zero).
type Proc interface {
	// Advance spends d of platform time: virtual time under vtime, a
	// wall-clock sleep under host. Non-positive durations spend nothing
	// (under vtime they still yield to other processes due now). Waiting
	// for a message is Endpoint.Idle or Mailbox.Recv, never an Advance
	// loop.
	Advance(d Duration)
	// Now reports the current platform time.
	Now() Time
	// Advanced reports total time spent in Advance — busy time. Host
	// processes report zero (there is no charged compute on host).
	Advanced() Duration
	// Blocked reports total time spent parked in blocking waits. Host
	// processes report zero.
	Blocked() Duration
}

// Mailbox is a handle to one (rank, tag) receive queue; poll-heavy paths
// cache it to skip the per-call map lookup. A receiver drains a backlog by
// calling TryRecv until it reports false: on host the first call takes the
// whole backlog under the mailbox lock once and the rest pop from the
// consumer's own slice.
type Mailbox interface {
	// Recv dequeues a message, blocking p until one is available. ok is
	// false only if the mailbox is closed and drained.
	Recv(p Proc) (Message, bool)
	// TryRecv dequeues a pending message without blocking.
	TryRecv() (Message, bool)
}

// Endpoint is one rank's attachment to the interconnect. It has one
// mailbox per tag, and delivery routes by tag alone: a message sent before
// its receiver registers the tag waits in the tag's box, and each sender's
// messages keep their send order in it. Each stream the runtime addresses
// owns its tag (a queue's tag has one sender), so no receive needs to
// match a source.
type Endpoint interface {
	// Rank reports this endpoint's rank.
	Rank() int
	// Send injects a message; it does not charge CPU time (the mpi layer
	// adds per-call instruction costs). Under vtime delivery happens at the
	// modelled arrival time; under host it is immediate.
	//
	// The payload is handed over: once Send returns the sender must not
	// write to it, or to memory it references. Host and vtime deliver the
	// very reference; net encodes it on the writer goroutine after Send has
	// returned and the receiver gets a decoded copy. Either way the
	// receiver may keep and modify what it received (platformtest pins that
	// half on host and net). The one exception is a Copy-On-Access page
	// reply: its frames are lent read-only, since the sender's snapshot
	// keeps serving them, and mem maps them copy-on-write, so the receiver
	// writes only its own copy of a page.
	Send(to, tag int, payload any, bytes int)
	// SendClass is Send with an explicit traffic class for bandwidth
	// attribution; the class changes accounting only, never timing.
	SendClass(to, tag int, payload any, bytes int, class MsgClass)
	// Recv blocks p until a message with the given tag arrives, and
	// returns it. from is checked as Mailbox checks it.
	Recv(p Proc, from, tag int) Message
	// Mailbox returns (creating if needed) the tag's mailbox. from does not
	// route: it names the tag's one sender, or is AnySource. A registration
	// naming a different sender from an earlier one on the same tag panics;
	// AnySource registrations never conflict.
	Mailbox(from, tag int) Mailbox
	// Idle is the wait step of a poll loop: the endpoint's single polling
	// consumer calls it after Mailbox.TryRecv found every mailbox it watches
	// empty, then polls again. Under vtime it advances p by exactly d (the
	// loop's modelled back-off). Live backends ignore d and return once
	// anything has been delivered to any mailbox of this endpoint since
	// the previous Idle returned — spinning briefly, then parking — so a
	// loop may only wait on conditions that arrive as deliveries here, and
	// must tolerate returns that are not for a mailbox it watches.
	Idle(p Proc, d Duration)
}

// Platform is one execution world: a clock, a set of rank endpoints, and a
// process scheduler. core.System drives exactly one Platform per run.
type Platform interface {
	// Endpoint returns the communication endpoint for a rank.
	Endpoint(rank int) Endpoint
	// InstrTime converts an instruction count into platform time: modelled
	// core-clock time under vtime, zero under host (real instructions
	// already cost real time).
	InstrTime(instructions int64) Duration
	// Spawn starts a new process executing fn. Under vtime the process
	// starts when Run drives the calendar; under host the goroutine starts
	// immediately.
	Spawn(name string, fn func(p Proc))
	// Run executes spawned processes to completion and returns the first
	// process failure, if any. horizon (if positive) bounds virtual time
	// under vtime; host ignores it.
	Run(horizon Duration) error
	// Now reports the current platform time.
	Now() Time
	// Events reports how many scheduler events have fired (zero on host).
	Events() uint64
	// Traffic returns a snapshot of accumulated wire traffic.
	Traffic() TrafficStats
}
