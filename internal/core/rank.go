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

// The three rank roles — workers, the try-commit unit and the commit unit —
// run one recovery protocol (§4.3). What all three share lives here as System
// helpers; specRank is the part the two speculative roles, workers and the
// try-commit unit, share on top of that.

// specRank is a speculative rank: it reads committed memory through a private
// Copy-On-Access image, polls the commit unit's control mailbox, and unwinds
// to recovery when the commit unit orders a newer epoch.
type specRank struct {
	sys     *System
	rank    int
	proc    platform.Proc
	comm    *mpi.Comm
	ctrlBox platform.Mailbox // cached tagCtrl mailbox
	pageBox platform.Mailbox // cached tagPageReply mailbox
	img     *mem.Image
	coa     coaClient

	epoch       uint64
	pendingCtrl *ctrlMsg
	rec         window // recovery windows, for stall attribution
}

// attach binds rank's process to the world, with the tracer on its comm.
func (s *System) attach(rank int, p platform.Proc) *mpi.Comm {
	comm := s.world.Attach(rank, p)
	comm.SetTracer(s.tr, rank)
	return comm
}

// recordLife stores how long rank's process ran on its own clock; processes
// defer it with their birth time.
func (s *System) recordLife(rank int, p platform.Proc, born platform.Time) {
	s.life[rank] = p.Now() - born
}

// bind attaches the rank's process and caches the mailboxes of what every
// speculative rank receives from the commit unit's rank: control broadcasts
// and COA page replies. The image maps its Copy-On-Access frames
// copy-on-write (they are lent by a page server's snapshot), so recovery's
// discard recycles only the copies the rank's own stores made and the zero
// pages it filled.
func (r *specRank) bind(p platform.Proc) {
	r.proc = p
	r.comm = r.sys.attach(r.rank, p)
	ep := r.comm.Endpoint()
	r.ctrlBox = ep.Mailbox(platform.AnySource, tagCtrl)
	r.pageBox = ep.Mailbox(platform.AnySource, tagPageReply)
	r.img = mem.NewImage(r.coaFault)
	r.img.ReleaseOnReset(true)
	r.img.Instrument(r.sys.tr.Metrics())
}

// coaClient ramps read-ahead like an OS page cache: a fault adjacent to the
// previous fetched run doubles the window (up to COAPrefetch); a random
// fault resets to a single page, so scattered access wastes no bandwidth.
type coaClient struct {
	nextSeq uva.PageID
	window  int
}

// coaFault implements Copy-On-Access: the first touch of a protected page
// requests a run of pages from the page server — the paper's constructive
// prefetching (a word request returns its whole page), extended with a
// read-ahead ramp over sequential fault streams. The reply's frames are
// lent: in one process they are the snapshot's own, and the image maps
// them copy-on-write, so a page this rank only reads is never copied.
func (r *specRank) coaFault(id uva.PageID) *mem.Page {
	sys, comm, img, c := r.sys, r.comm, r.img, &r.coa
	cfg := sys.cfg
	spanStart := sys.tr.Now()
	comm.Proc().Advance(sys.instrTime(cfg.PageFaultInstr))
	// Requests go to the page server on the commit unit's rank; replies come
	// back on tagPageReply (one outstanding request per rank).
	dst := cfg.commitRank()
	if id == c.nextSeq && c.window > 0 {
		c.window *= 2
		if c.window > cfg.COAPrefetch {
			c.window = cfg.COAPrefetch
		}
	} else {
		c.window = 1
	}
	// A bulk access declares exactly how far it reaches; fetch that run in
	// one round trip instead of ramping up to it.
	want := c.window
	if hint := img.AccessHint(); hint > id {
		if need := int(hint - id); need > want {
			want = need
		}
		if want > cfg.COAPrefetch {
			want = cfg.COAPrefetch
		}
	}
	count := 1
	region := uva.PageAddr(id).Owner()
	for count < want {
		next := id + uva.PageID(count)
		// A prefetch run stays within one allocation region.
		if uva.PageAddr(next).Owner() != region || img.Has(next) {
			break
		}
		count++
	}
	c.nextSeq = id + uva.PageID(count)
	// Page transfers use RDMA-style zero-copy (the paper's platform is
	// InfiniBand): a fixed per-operation CPU cost, wire time on the NIC,
	// and no per-byte marshalling.
	ep := comm.Endpoint()
	ep.SendClass(dst, tagPageReq, pageReq{Start: id, Count: count}, 24, platform.ClassPage)
	msg, _ := r.pageBox.Recv(comm.Proc())
	pages := msg.Payload.([]*mem.Page)
	for i := 1; i < len(pages); i++ {
		img.InstallPage(id+uva.PageID(i), pages[i])
	}
	sys.tr.Span(trace.SpanCOA, comm.Rank(), spanStart, uint64(id), int64(count), int64(msg.Bytes))
	return pages[0]
}

// untilRecovery runs loop until it returns its result, or until a recovery
// order unwinds it (false).
func untilRecovery(loop func() bool) (terminated bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(recoverySignal); !ok {
				panic(r)
			}
			terminated = false
		}
	}()
	return loop()
}

// recoverOn unwinds to the recovery handler if cm orders a newer epoch.
func (r *specRank) recoverOn(cm ctrlMsg) {
	if cm.epoch > r.epoch {
		r.pendingCtrl = &cm
		panic(recoverySignal{})
	}
}

// awaitDoneOrRecovery parks a rank whose loop has terminated until the
// commit unit either confirms completion (true) or — having found a
// misspeculation in an earlier, uncommitted MTX — orders a recovery (false,
// with pendingCtrl set). Any other control message is stale.
func (r *specRank) awaitDoneOrRecovery() bool {
	for {
		cm := r.comm.Recv(platform.AnySource, tagCtrl).Payload.(ctrlMsg)
		if cm.done {
			return true
		}
		if cm.epoch > r.epoch {
			r.pendingCtrl = &cm
			return false
		}
	}
}

// enterRecovery takes the pending recovery order, opens the recovery window
// and joins barrier B1. The caller then flushes its queues and resets its
// own state before leaveRecovery.
func (r *specRank) enterRecovery() ctrlMsg {
	cm := *r.pendingCtrl
	r.pendingCtrl = nil
	r.rec.open(r.proc, r.sys.tr)
	r.comm.Barrier(r.sys.allRanks) // B1: all ranks have entered recovery mode
	return cm
}

// leaveRecovery finishes a speculative rank's side of §4.3 once its queues
// are flushed: barrier B2, then reinstate access protection over the heap,
// discarding speculative state — the charge scales with the pages the rank
// had touched — and barrier B3 while the commit unit re-executes. The rank
// keeps its image across B3 and, right after it, drops only what changed
// (cuNode.republish).
func (r *specRank) leaveRecovery(cm ctrlMsg) {
	r.comm.Barrier(r.sys.allRanks) // B2: queues flushed everywhere
	r.proc.Advance(r.sys.instrTime(r.sys.cfg.ProtectInstr * int64(r.img.Resident())))
	r.epoch = cm.epoch
	r.comm.Barrier(r.sys.allRanks) // B3: the commit unit has re-executed; resume
	// The stale list of this epoch (republish) is the first control message
	// of it; anything read before it is from an earlier epoch, and stale.
	for {
		if m := r.comm.Recv(platform.AnySource, tagCtrl).Payload.(ctrlMsg); m.rearm && m.epoch == r.epoch {
			r.img.Rearm(m.stale)
			break
		}
	}
	r.rec.close(r.proc)
	r.sys.tr.Span(trace.SpanRecovery, r.rank, r.rec.trStart, cm.restart, 0, 0)
}

// window accounts a rank's recovery windows (or run-ahead waits) for the
// stall table: the wall time inside them and the shares of that time its
// process advanced and was parked, which the table moves out of Busy and
// Blocked. A window is opened
// and closed on one process; trStart anchors the window's span in tracer
// time.
type window struct {
	wall, adv, blk platform.Duration
	start          platform.Time
	adv0, blk0     platform.Duration
	trStart        platform.Time
}

func (w *window) open(p platform.Proc, tr *trace.Tracer) {
	w.start, w.adv0, w.blk0 = p.Now(), p.Advanced(), p.Blocked()
	w.trStart = tr.Now()
}

// close ends the window.
func (w *window) close(p platform.Proc) {
	w.wall += p.Now() - w.start
	w.adv += p.Advanced() - w.adv0
	w.blk += p.Blocked() - w.blk0
}

// stallRow starts a rank's stall-table row: its recovery windows' wall time
// in the Recovery column, with what its process advanced inside them (and,
// in polled, outside them in the row's other stall columns) taken out of
// Busy, and what it was parked inside them out of Blocked. Virtual time
// inside a window passes only in Advance or parks, so a window's wall time
// is its advanced plus its parked share.
func stallRow(p platform.Proc, polled platform.Duration, rec window) trace.StallRow {
	return trace.StallRow{
		Busy:     p.Advanced() - polled - rec.adv,
		Recovery: rec.wall,
		Blocked:  p.Blocked() - rec.blk,
	}
}

// routeOf resolves which worker ran a stage of iteration iter: the routed
// stage by its route records (iteration → routed-pool index), a parallel
// stage round-robin, a sequential stage its one worker.
func (s *System) routeOf(stage int, iter uint64, routes map[uint64]int) int {
	if stage == s.routedStage {
		idx, ok := routes[iter]
		if !ok {
			panic(fmt.Sprintf("core: rank has no route record for MTX %d", iter))
		}
		return s.layout.Assign[stage][idx]
	}
	if s.cfg.Plan.Stages[stage].Kind == pipeline.Parallel {
		return s.layout.WorkerOf(stage, iter)
	}
	return s.layout.Assign[stage][0]
}

// drainTerminates consumes the final terminate marker from every worker
// stream in in except that of endIter's first-stage worker, whose marker
// ended the loop. Entries of squashed run-ahead subTXs may precede a marker;
// they are dead.
func (s *System) drainTerminates(in []*queue.RecvPort[Entry], endIter uint64, next func(*queue.RecvPort[Entry]) Entry) {
	for tid, port := range in {
		if s.layout.StageOf(tid) == 0 && s.layout.WorkerOf(0, endIter) == tid {
			continue
		}
		for next(port).Kind != entTerminate {
		}
	}
}
