package core

import (
	"fmt"

	"dsmtx/internal/mem"
	"dsmtx/internal/mpi"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/platform"
	"dsmtx/internal/queue"
	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// tcNode is the try-commit unit (§3.1, §3.2): it runs in its own pipeline
// stage, consuming every worker's speculative access stream in MTX/subTX
// order and validating each MTX with value-based conflict detection. It
// keeps its own private view of memory — initialized by Copy-On-Access like
// any worker and updated with each validated store — so a speculative load
// conflicts exactly when its observed value differs from the value the
// committed order produces.
type tcNode struct {
	sys     *System
	rank    int
	proc    platform.Proc
	comm    *mpi.Comm
	ctrlBox platform.Mailbox // cached (commit rank, tagCtrl) mailbox
	view    *mem.Image

	in       []*entryCursor           // per worker tid
	verdicts []*queue.SendPort[Entry] // per commit shard

	coa        coaClient
	sinceFlush int

	routes      map[uint64]int // iter -> pool index of routed stage
	epoch       uint64
	pollTime    platform.Duration
	nextIter    uint64
	pendingCtrl *ctrlMsg

	// Recovery-window accounting for stall attribution.
	recWall platform.Duration
	recAdv  platform.Duration
	recBlk  platform.Duration

	// Validated counts, for tests.
	Checked   uint64
	Conflicts uint64
}

func newTCNode(s *System) *tcNode {
	return &tcNode{sys: s, rank: s.cfg.tryCommitRank(), routes: make(map[uint64]int)}
}

func (t *tcNode) run(p platform.Proc) {
	t.proc = p
	defer func(born platform.Time) { t.sys.life[t.rank] = p.Now() - born }(p.Now())
	t.comm = t.sys.world.Attach(t.rank, p)
	t.comm.SetTracer(t.sys.tr, t.rank)
	t.bind()
	t.comm.Recv(t.sys.cfg.commitRank(), tagStart) // Setup must finish first
	for {
		if t.epochLoop() {
			if t.awaitDoneOrRecovery() {
				return
			}
		}
		t.doRecovery()
	}
}

// awaitDoneOrRecovery parks a finished try-commit unit until the commit
// unit confirms completion (true) or orders a recovery (false).
func (t *tcNode) awaitDoneOrRecovery() bool {
	src := t.sys.commitSrc()
	for {
		msg := t.comm.Recv(src, tagCtrl)
		cm := msg.Payload.(ctrlMsg)
		if cm.done {
			return true
		}
		if cm.epoch > t.epoch {
			t.pendingCtrl = &cm
			return false
		}
	}
}

func (t *tcNode) bind() {
	ep := t.comm.Endpoint()
	// Under a sharded commit pipeline control traffic (recovery epochs) may
	// originate at any coordinator shard and COA replies at any owner shard.
	t.ctrlBox = ep.Mailbox(t.sys.commitSrc(), tagCtrl)
	ep.Mailbox(t.sys.commitSrc(), tagPageReply)
	t.comm.RegisterBarrierMailboxes()
	t.view = mem.NewImage(t.coaFault)
	// The view's pages are private Copy-On-Access clones; recovery's
	// wholesale discard can recycle the frames.
	t.view.ReleaseOnReset(true)
	t.view.Instrument(t.sys.tr.Metrics())
	for _, q := range t.sys.toTCQ {
		t.in = append(t.in, newEntryCursor(q.Receiver(t.comm)))
	}
	for _, q := range t.sys.verdictQ {
		t.verdicts = append(t.verdicts, q.Sender(t.comm))
	}
}

// coaFault initializes the try-commit view by Copy-On-Access, like a worker.
func (t *tcNode) coaFault(id uva.PageID) *mem.Page {
	return t.coa.fetch(t.sys, t.comm, t.view, id)
}

func (t *tcNode) epochLoop() (terminated bool) {
	recovered := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(recoverySignal); ok {
					recovered = true
					return
				}
				panic(r)
			}
		}()
		terminated = t.validateLoop()
	}()
	return !recovered && terminated
}

// validateLoop processes MTXs in order; for each MTX it walks the subTX
// streams in stage order, applying stores to the view and checking loads
// against it.
func (t *tcNode) validateLoop() bool {
	for {
		iter := t.nextIter
		spanStart := t.sys.tr.Now()
		ok := true
		for s := range t.sys.cfg.Plan.Stages {
			tid := t.routeOf(s, iter)
			subOK, term := t.drainSub(tid, iter)
			if term {
				if s != 0 {
					panic(fmt.Sprintf("core: try-commit saw terminate mid-MTX %d at stage %d", iter, s))
				}
				t.drainTerminates(iter)
				for _, v := range t.verdicts {
					v.Produce(Entry{Kind: entTerminate, MTX: iter})
					v.Flush()
				}
				return true
			}
			ok = ok && subOK
		}
		verdictVal := uint64(1)
		if !ok {
			verdictVal = 0
			t.Conflicts++
		}
		for _, v := range t.verdicts {
			v.Produce(Entry{Kind: entVerdict, MTX: iter, Val: verdictVal})
		}
		t.sys.tr.Span(trace.SpanValidate, t.rank, spanStart, iter, int64(verdictVal), 0)
		t.sinceFlush++
		if !ok || t.sinceFlush >= t.sys.cfg.MarkerFlushIters {
			for _, v := range t.verdicts {
				v.Flush() // conflicts flush immediately; the rest batch
			}
			t.sinceFlush = 0
		}
		delete(t.routes, iter)
		t.nextIter = iter + 1
	}
}

// drainSub validates one subTX of one MTX from a worker's stream.
func (t *tcNode) drainSub(tid int, iter uint64) (ok, term bool) {
	ok = true
	port := t.in[tid]
	for {
		e := t.consumeNext(port)
		switch e.Kind {
		case entWrite:
			t.view.Store(e.Addr, e.Val)
		case entWriteBlk:
			t.view.StoreBytes(e.Addr, e.Payload.([]byte))
		case entRead:
			t.Checked++
			if t.view.Load(e.Addr) != e.Val {
				ok = false
			}
		case entReadBlk:
			t.Checked++
			t.proc.Advance(t.sys.instrTime(int64(float64(e.Bytes) * t.sys.cfg.BulkInstrPerByte)))
			if t.view.ChecksumRange(e.Addr, e.Bytes) != e.Val {
				ok = false
			}
		case entRoute:
			t.routes[e.MTX] = int(e.Val)
		case entMisspec:
			ok = false
		case entEndSub:
			if e.MTX != iter {
				panic(fmt.Sprintf("core: try-commit expected EndSub %d from worker %d, got %d", iter, tid, e.MTX))
			}
			return ok, false
		case entTerminate:
			return ok, true
		default:
			panic(fmt.Sprintf("core: try-commit: unexpected %v entry", e.Kind))
		}
	}
}

// drainTerminates consumes the final terminate marker from every worker
// stream that has not already delivered one.
func (t *tcNode) drainTerminates(endIter uint64) {
	for tid := range t.in {
		if t.sys.layout.StageOf(tid) == 0 && t.sys.layout.WorkerOf(0, endIter) == tid {
			continue // this stream's terminate was just consumed
		}
		for {
			e := t.consumeNext(t.in[tid])
			if e.Kind == entTerminate {
				break
			}
			// Entries from squashed run-ahead subTXs may precede the
			// marker; they are dead.
		}
	}
}

// routeOf resolves which worker ran stage s of iteration iter.
func (t *tcNode) routeOf(s int, iter uint64) int {
	if s == t.sys.routedStage {
		idx, ok := t.routes[iter]
		if !ok {
			panic(fmt.Sprintf("core: try-commit has no route for MTX %d", iter))
		}
		return t.sys.layout.Assign[s][idx]
	}
	if t.sys.cfg.Plan.Stages[s].Kind == pipeline.Parallel {
		return t.sys.layout.WorkerOf(s, iter)
	}
	return t.sys.layout.Assign[s][0]
}

func (t *tcNode) consumeNext(port *entryCursor) Entry {
	backoff := t.sys.cfg.PollMin
	for {
		if e, ok := port.tryNext(); ok {
			return e
		}
		t.checkCtrl()
		t.sys.pollWait(t.comm, &backoff, &t.pollTime)
	}
}

func (t *tcNode) checkCtrl() {
	msg, ok := t.comm.TryRecvBox(t.ctrlBox)
	if !ok {
		return
	}
	cm := msg.Payload.(ctrlMsg)
	if cm.epoch <= t.epoch {
		return
	}
	t.pendingCtrl = &cm
	panic(recoverySignal{})
}

func (t *tcNode) doRecovery() {
	cm := *t.pendingCtrl
	t.pendingCtrl = nil
	recStart := t.proc.Now()
	spanStart := t.sys.tr.Now()
	adv0, blk0 := t.proc.Advanced(), t.proc.Blocked()
	t.comm.Barrier(t.sys.allRanks) // B1: entered recovery mode
	for _, port := range t.in {
		port.abort(cm.epoch)
	}
	for _, v := range t.verdicts {
		v.Abort(cm.epoch)
	}
	t.routes = make(map[uint64]int)
	t.comm.Barrier(t.sys.allRanks) // B2: queues flushed
	t.proc.Advance(t.sys.instrTime(t.sys.cfg.ProtectInstr * int64(t.view.Resident())))
	live := t.sys.plat.Concurrent()
	if !live {
		t.view.Reset() // live backends re-arm only what changed (cuNode.republish)
	}
	t.epoch = cm.epoch
	t.nextIter = cm.restart
	t.comm.Barrier(t.sys.allRanks) // B3: resume
	if live {
		t.view.Rearm(awaitRearm(t.comm, t.sys.commitSrc(), t.epoch))
	}
	t.recWall += t.proc.Now() - recStart
	t.recAdv += t.proc.Advanced() - adv0
	t.recBlk += t.proc.Blocked() - blk0
	t.sys.tr.Span(trace.SpanRecovery, t.rank, spanStart, cm.restart, 0, 0)
}
