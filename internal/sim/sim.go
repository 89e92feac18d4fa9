// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock and runs "processes" — ordinary Go
// functions hosted on goroutines — in strict cooperative alternation: at any
// instant exactly one process (or the kernel itself) is executing. Processes
// spend virtual time with Proc.Advance and communicate over Chan values.
// Events scheduled for the same virtual instant fire in schedule order, so
// runs are reproducible bit-for-bit.
//
// The DSMTX runtime and its cluster substrate run unmodified on this kernel:
// all of their logic executes for real; only the passage of time is
// simulated. That is what lets a laptop measure the behaviour of a
// 128-core cluster deterministically.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"dsmtx/internal/platform"
)

// Time is a point in virtual time, measured in virtual nanoseconds from the
// start of the run. It aliases the platform-neutral clock type, so values
// flow unconverted between the simulator and the runtime layers above.
type Time = platform.Time

// Duration aliases Time for readability when a length of time is meant.
type Duration = Time

// Convenient virtual-time units.
const (
	Nanosecond  = platform.Nanosecond
	Microsecond = platform.Microsecond
	Millisecond = platform.Millisecond
	Second      = platform.Second
)

// ErrDeadlock is returned (wrapped) by Run when live processes remain but no
// event can ever wake them.
var ErrDeadlock = errors.New("sim: deadlock")

// event is a single entry in the kernel's calendar: either "resume process p"
// or "call fn" at time t. Same-time events fire in seq order.
type event struct {
	t   Time
	seq uint64
	p   *Proc
	fn  func()
}

// eventHeap is a hand-rolled binary min-heap over event values. Avoiding
// container/heap keeps push/pop free of interface boxing — they were the
// simulator's top allocation site. (t, seq) is a total order, so the pop
// sequence is independent of heap internals.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) peek() event { return h[0] }

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) popMin() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = event{} // drop the p/fn references
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// killSentinel unwinds a process goroutine when the kernel shuts down.
type killSentinel struct{}

// Kernel owns the virtual clock and the event calendar.
//
// A Kernel must be driven from a single goroutine via Run; processes are
// created with Spawn before or during the run.
type Kernel struct {
	now     Time
	events  eventHeap
	seq     uint64
	procs   []*Proc
	live    int
	yield   chan struct{}
	killing bool
	failure error
	horizon Time // active Run's horizon (0 = unbounded); guards the Advance fast path
	// Stats
	nEvents uint64
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{yield: make(chan struct{})}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Events reports how many calendar events have fired so far.
func (k *Kernel) Events() uint64 { return k.nEvents }

func (k *Kernel) schedule(t Time, p *Proc, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.events.push(event{t: t, seq: k.seq, p: p, fn: fn})
}

// At schedules fn to run at virtual time t (or now, if t is in the past).
// fn runs on the kernel's goroutine and must not block.
func (k *Kernel) At(t Time, fn func()) { k.schedule(t, nil, fn) }

// After schedules fn to run d from now. fn must not block.
func (k *Kernel) After(d Duration, fn func()) { k.schedule(k.now+d, nil, fn) }

// Spawn creates a new process executing fn and schedules it to start at the
// current virtual time. The name appears in deadlock reports.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{})}
	k.procs = append(k.procs, p)
	k.live++
	go func() {
		<-p.resume
		defer func() {
			r := recover()
			if _, killed := r.(killSentinel); r != nil && !killed {
				if k.failure == nil {
					k.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
				}
			}
			p.state = procDone
			k.live--
			k.yield <- struct{}{}
		}()
		if k.killing {
			panic(killSentinel{})
		}
		fn(p)
	}()
	k.schedule(k.now, p, nil)
	return p
}

// Run drives the calendar until it drains, a process panics, or the horizon
// (if positive) is reached. It returns a deadlock error when live processes
// remain blocked with an empty calendar.
func (k *Kernel) Run(horizon Time) error {
	k.horizon = horizon
	for len(k.events) > 0 && k.failure == nil {
		if horizon > 0 && k.events.peek().t > horizon {
			break
		}
		e := k.events.popMin()
		k.now = e.t
		k.nEvents++
		if e.fn != nil {
			e.fn()
			continue
		}
		if e.p.state == procDone {
			continue
		}
		e.p.state = procRunning
		e.p.resume <- struct{}{}
		<-k.yield
	}
	var deadlock error
	if k.failure == nil && k.live > 0 && horizon <= 0 {
		deadlock = fmt.Errorf("%w: %d live process(es) blocked: %s", ErrDeadlock, k.live, k.blockedNames())
	}
	k.kill()
	if k.failure != nil {
		return k.failure
	}
	return deadlock
}

// kill unwinds every still-parked process so no goroutines leak.
func (k *Kernel) kill() {
	k.killing = true
	for _, p := range k.procs {
		if p.state == procBlocked {
			p.state = procRunning
			p.resume <- struct{}{}
			<-k.yield
		}
	}
	// Processes scheduled in the calendar but never started also unwind.
	for len(k.events) > 0 {
		e := k.events.popMin()
		if e.p != nil && e.p.state == procReady {
			e.p.state = procRunning
			e.p.resume <- struct{}{}
			<-k.yield
		}
	}
}

func (k *Kernel) blockedNames() string {
	var names []string
	for _, p := range k.procs {
		if p.state == procBlocked {
			names = append(names, p.name+" ("+p.blockedOn+")")
		}
	}
	sort.Strings(names)
	if len(names) > 8 {
		names = append(names[:8], fmt.Sprintf("… %d more", len(names)-8))
	}
	return strings.Join(names, ", ")
}

type procState uint8

const (
	procReady procState = iota
	procRunning
	procBlocked
	procDone
)

// Proc is the handle a process uses to interact with virtual time. Every
// blocking operation takes the Proc of the calling process.
type Proc struct {
	k         *Kernel
	name      string
	resume    chan struct{}
	state     procState
	blockedOn string
	advanced  Time
	blocked   Time
	dilate    func(Time, Duration) Duration
}

// SetDilation installs a compute-time dilation hook: every subsequent
// Advance(d) spends dilate(now, d) instead of d. The fault layer uses it
// to model straggler ranks; nil removes the hook. Dilated time counts as
// busy time in Advanced, exactly as if the work really were slower.
func (p *Proc) SetDilation(dilate func(now Time, d Duration) Duration) {
	p.dilate = dilate
}

// Advanced reports the total virtual time this process has spent in
// Advance — its busy time, as opposed to blocking waits.
func (p *Proc) Advanced() Time { return p.advanced }

// Blocked reports the total virtual time this process has spent parked in
// message receives — the complement of Advanced in the stall-attribution
// report. Time parked inside Advance itself is excluded: that is busy time
// already counted by Advanced.
func (p *Proc) Blocked() Time { return p.blocked }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// park suspends the process until something schedules it again. The caller
// must already have registered the process somewhere it can be woken from.
//
// Instead of handing control back to the kernel loop (two channel
// handshakes per process switch: parker→kernel, kernel→next), the parking
// goroutine takes the driving seat itself: it pops calendar events in
// exactly the (t, seq) order the kernel loop would, runs fn events inline,
// and hands the seat directly to the next process (one handshake) — or to
// itself with no handshake at all, the common case when a poll backoff
// expires or an inline delivery wakes this very process. Event order, clock
// movement and the event count are bit-for-bit identical to kernel-driven
// dispatch; only which goroutine executes the pop changes. The kernel loop
// still owns startup, termination, deadlock detection and the horizon: the
// driver hands the seat back to it whenever one of those conditions holds.
func (p *Proc) park(reason string) {
	p.state = procBlocked
	p.blockedOn = reason
	t0 := p.k.now
	p.drive()
	if p.k.killing {
		panic(killSentinel{})
	}
	p.blockedOn = ""
	if reason != "advance" {
		// Advance parks are busy time (already in advanced); everything
		// else is a genuine blocking wait.
		p.blocked += p.k.now - t0
	}
}

// drive dispatches calendar events on the parked process's goroutine until
// this process is resumed (return) or the kernel loop must take over
// (kill/failure, empty calendar, horizon reached — hand the seat back and
// wait for resume).
func (p *Proc) drive() {
	k := p.k
	for {
		if k.killing || k.failure != nil || len(k.events) == 0 ||
			(k.horizon > 0 && k.events[0].t > k.horizon) {
			k.yield <- struct{}{}
			<-p.resume
			return
		}
		e := k.events.popMin()
		k.now = e.t
		k.nEvents++
		if e.fn != nil {
			e.fn()
			continue
		}
		if e.p.state == procDone {
			continue
		}
		e.p.state = procRunning
		if e.p == p {
			return
		}
		e.p.resume <- struct{}{}
		<-p.resume
		return
	}
}

// wake schedules a blocked process to resume at the current virtual time.
// Callers must ensure the process is woken at most once per park.
func (p *Proc) wake() { p.k.schedule(p.k.now, p, nil) }

// Advance spends d of virtual time — the simulation analogue of computing
// for d. Negative and zero durations yield the processor without advancing
// the clock (same-time events scheduled earlier still run first).
func (p *Proc) Advance(d Duration) {
	if d < 0 {
		d = 0
	}
	if p.dilate != nil {
		d = p.dilate(p.k.now, d)
	}
	p.advanced += d
	k := p.k
	// Fast path: when no calendar entry fires at or before now+d, the
	// kernel's next action after a park would be popping this process's own
	// resume event — so bump the clock in place and keep running. Event
	// order is bit-for-bit unchanged; only the park/resume goroutine
	// handshake (the dominant host cost per Advance) is skipped. Strict
	// alternation makes the direct clock/heap access safe: the driving seat
	// (kernel or another process) is parked for as long as this process
	// runs.
	if !k.killing &&
		(len(k.events) == 0 || k.events[0].t > k.now+d) &&
		(k.horizon <= 0 || k.now+d <= k.horizon) {
		k.now += d
		return
	}
	k.schedule(k.now+d, p, nil)
	p.park("advance")
}
