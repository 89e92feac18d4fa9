package core

import (
	"fmt"

	"dsmtx/internal/platform"
	"dsmtx/internal/queue"
	"dsmtx/internal/trace"
)

// tcNode is the try-commit unit (§3.1, §3.2): it runs in its own pipeline
// stage, consuming every worker's speculative access stream in MTX/subTX
// order and validating each MTX with value-based conflict detection. It
// keeps its own private view of memory — initialized by Copy-On-Access like
// any worker and updated with each validated store — so a speculative load
// conflicts exactly when its observed value differs from the value the
// committed order produces.
type tcNode struct {
	specRank

	in      []*queue.RecvPort[Entry] // per worker tid
	verdict *queue.SendPort[Entry]

	sinceFlush int
	routes     map[uint64]int // iter -> pool index of routed stage
	nextIter   uint64
	pollTime   platform.Duration // stall attribution: all of it starvation

	// Conflicts counts failed validations, for tests.
	Conflicts uint64
}

func newTCNode(s *System) *tcNode {
	return &tcNode{specRank: specRank{sys: s, rank: s.cfg.tryCommitRank()}, routes: make(map[uint64]int)}
}

func (t *tcNode) run(p platform.Proc) {
	defer t.sys.recordLife(t.rank, p, p.Now())
	t.bind(p)
	for _, q := range t.sys.toTCQ {
		t.in = append(t.in, q.Receiver(t.comm))
	}
	t.verdict = t.sys.verdictQ.Sender(t.comm)
	t.comm.Recv(t.sys.cfg.commitRank(), tagStart) // Setup must finish first
	for {
		if untilRecovery(t.validateLoop) && t.awaitDoneOrRecovery() {
			return
		}
		t.doRecovery()
	}
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
			tid := t.sys.routeOf(s, iter, t.routes)
			subOK, term := t.drainSub(tid, iter)
			if term {
				if s != 0 {
					panic(fmt.Sprintf("core: try-commit saw terminate mid-MTX %d at stage %d", iter, s))
				}
				t.sys.drainTerminates(t.in, iter, t.consumeNext)
				t.verdict.Produce(Entry{Kind: entTerminate, MTX: iter})
				t.verdict.Flush()
				return true
			}
			ok = ok && subOK
		}
		verdictVal := uint64(1)
		if !ok {
			verdictVal = 0
			t.Conflicts++
		}
		t.verdict.Produce(Entry{Kind: entVerdict, MTX: iter, Val: verdictVal})
		t.sys.tr.Span(trace.SpanValidate, t.rank, spanStart, iter, int64(verdictVal), 0)
		t.sinceFlush++
		if !ok || t.sinceFlush >= t.sys.cfg.MarkerFlushIters {
			t.verdict.Flush() // conflicts flush immediately; the rest batch
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
			t.img.Store(e.Addr, e.Val)
		case entWriteBlk:
			t.img.StoreBytes(e.Addr, e.Payload.([]byte))
		case entRead:
			if t.img.Load(e.Addr) != e.Val {
				ok = false
			}
		case entReadBlk:
			t.proc.Advance(t.sys.instrTime(int64(float64(e.Bytes) * t.sys.cfg.BulkInstrPerByte)))
			if t.img.ChecksumRange(e.Addr, e.Bytes) != e.Val {
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

func (t *tcNode) consumeNext(port *queue.RecvPort[Entry]) Entry {
	backoff := pollMin
	for {
		if e, ok := port.TryNext(); ok {
			return e
		}
		t.checkCtrl()
		t.sys.pollWait(t.comm, &backoff, &t.pollTime)
	}
}

// checkCtrl reads one control message (a TryRecv costs time on vtime, so
// this does not drain the mailbox the way a worker's does).
func (t *tcNode) checkCtrl() {
	if msg, ok := t.comm.TryRecvBox(t.ctrlBox); ok {
		t.recoverOn(msg.Payload.(ctrlMsg))
	}
}

func (t *tcNode) doRecovery() {
	cm := t.enterRecovery()
	for _, port := range t.in {
		port.Abort(cm.epoch)
	}
	t.verdict.Abort(cm.epoch)
	t.routes = make(map[uint64]int)
	t.nextIter = cm.restart
	t.leaveRecovery(cm)
}
