package core

import (
	"fmt"
	"sync/atomic"

	"dsmtx/internal/mem"
	"dsmtx/internal/mpi"
	"dsmtx/internal/platform"
	"dsmtx/internal/queue"
	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// cuNode is the paper's commit unit: the only process holding authoritative
// memory. It runs the sequential portions (Setup, recovery re-execution,
// Finalize) against that memory, commits each validated MTX atomically in
// the predefined order (group transaction commit), and orchestrates
// misspeculation recovery (§4.3).
type cuNode struct {
	sys   *System
	rank  int
	proc  platform.Proc
	comm  *mpi.Comm
	img   *mem.Image
	arena *uva.Arena

	in      []*queue.RecvPort[Entry] // per worker tid
	verdict *queue.RecvPort[Entry]

	staged []Entry // group-commit staging buffer, reused across MTXs

	routes  map[uint64]int
	epoch   uint64
	iter    uint64
	result  Result
	resumed platform.Time // time of last recovery resume, 0 if none pending RFP

	// Stall attribution: poll time by what the poll was waiting for
	// (worker store streams vs try-commit verdicts), plus the recovery
	// windows. rfpStart anchors the RFP span in tracer time.
	stallStarve  platform.Duration
	stallVerdict platform.Duration
	rec          window
	rfpStart     platform.Time

	// Misspeculation cause and progress-report counters (nil when
	// uninstrumented).
	cMissWorker   *trace.Counter
	cMissConflict *trace.Counter
	cReports      *trace.Counter
}

func newCUNode(s *System) *cuNode {
	c := &cuNode{sys: s, rank: s.cfg.commitRank(), arena: uva.NewArena(0), routes: make(map[uint64]int)}
	// The image exists from construction (single-threaded, before spawn) so
	// Run can map the seed image into it.
	c.img = mem.NewImage(nil)
	c.img.Instrument(s.tr.Metrics())
	return c
}

func (c *cuNode) run(p platform.Proc) {
	c.proc = p
	defer c.sys.recordLife(c.rank, p, p.Now())
	c.comm = c.sys.attach(c.rank, p)
	c.bind()

	seq := &SeqCtx{cfg: c.sys.cfg, proc: p, img: c.img, arena: c.arena, instr: c.sys.instrTime}
	c.sys.prog.Setup(seq)
	// Publish the invocation-entry snapshot for Copy-On-Access service, then
	// open the parallel section: workers must not touch memory before the
	// sequential state exists.
	c.sys.srv.setSnapshot(c.img.Snapshot())
	for w := 0; w < c.sys.cfg.Workers(); w++ {
		c.comm.Send(w, tagStart, nil, 8)
	}
	c.comm.Send(c.sys.cfg.tryCommitRank(), tagStart, nil, 8)

	c.commitLoop(seq)
	if f, ok := c.sys.prog.(Finalizer); ok {
		f.Finalize(seq)
	}
	// Shut the page server down so the simulation can drain.
	c.comm.Endpoint().Send(c.rank, tagPageReq, nil, 8)
}

func (c *cuNode) bind() {
	for w := 0; w < c.sys.cfg.Workers(); w++ {
		c.in = append(c.in, c.sys.toCUQ[w].Receiver(c.comm))
	}
	c.verdict = c.sys.verdictQ.Receiver(c.comm)
	c.cMissWorker = c.sys.tr.Metrics().Counter("misspec.worker")
	c.cMissConflict = c.sys.tr.Metrics().Counter("misspec.conflict")
	c.cReports = c.sys.tr.Metrics().Counter("window.reports")
}

// commitLoop stages each MTX's stores from the worker streams, awaits the
// try-commit verdict, and either commits atomically or recovers, until the
// loop terminates.
func (c *cuNode) commitLoop(seq *SeqCtx) {
	for {
		iter := c.iter
		c.staged = c.staged[:0]
		misspec := false
		terminated := false
		for s := range c.sys.cfg.Plan.Stages {
			tid := c.sys.routeOf(s, iter, c.routes)
			subMiss, term := c.drainSub(tid, iter)
			if term {
				if s != 0 {
					panic(fmt.Sprintf("core: commit saw terminate mid-MTX %d at stage %d", iter, s))
				}
				terminated = true
				break
			}
			misspec = misspec || subMiss
		}
		if terminated {
			c.sys.drainTerminates(c.in, iter, c.consumeStream)
			c.awaitTerminateVerdict()
			// Release every parked worker and the try-commit unit.
			c.tellRanks(ctrlMsg{epoch: c.epoch, done: true})
			return
		}
		// The verdict arrives after the try-commit unit has validated every
		// subTX of this MTX.
		markerMiss := misspec
		if !c.nextVerdict(iter) {
			misspec = true
		}
		if misspec {
			if markerMiss {
				c.cMissWorker.Inc()
			} else {
				c.cMissConflict.Inc()
			}
			c.result.Misspecs++
			c.recover(seq, iter)
			continue
		}
		spanStart := c.sys.tr.Now()
		// Group transaction commit: apply all stores in subTX order; the
		// last write to a location wins.
		var bulkBytes int
		for _, e := range c.staged {
			if e.Kind == entWriteBlk {
				c.img.StoreBytes(e.Addr, e.Payload.([]byte))
				bulkBytes += e.Bytes
				continue
			}
			c.img.Store(e.Addr, e.Val)
		}
		c.proc.Advance(c.sys.instrTime(int64(len(c.staged))*c.sys.cfg.StoreInstr +
			int64(float64(bulkBytes)*c.sys.cfg.BulkInstrPerByte)))
		c.result.Committed++
		if committer, ok := c.sys.prog.(Committer); ok {
			committer.Commit(seq, iter)
		}
		c.sys.tr.Span(trace.SpanCommit, c.rank, spanStart, iter, int64(len(c.staged)), int64(bulkBytes))
		if c.resumed > 0 {
			c.result.RFP += c.proc.Now() - c.resumed
			c.sys.tr.Span(trace.SpanRFP, c.rank, c.rfpStart, iter, 0, 0)
			c.resumed = 0
		}
		delete(c.routes, iter)
		c.iter = iter + 1
		c.reportProgress()
	}
}

// reportProgress is the commit side of bounded run-ahead (see
// workerNode.awaitWindow): the commit unit tells the first-stage workers
// each time its commit point reaches a multiple of windowStride.
func (c *cuNode) reportProgress() {
	if c.iter%c.sys.windowStride != 0 {
		return
	}
	report := ctrlMsg{epoch: c.epoch, progress: c.iter}
	for _, w := range c.sys.layout.Assign[0] {
		c.cReports.Inc()
		c.comm.Send(w, tagCtrl, report, 24)
	}
}

// flushInputs is the commit unit's queue flush in recovery: every worker
// stream and the verdict port drop this epoch's entries, and so do the
// route records read from them.
func (c *cuNode) flushInputs() {
	for _, port := range c.in {
		port.Abort(c.epoch)
	}
	c.verdict.Abort(c.epoch)
	c.routes = make(map[uint64]int)
}

// drainSub stages one subTX's stores into the reused staging buffer.
func (c *cuNode) drainSub(tid int, iter uint64) (misspec, term bool) {
	port := c.in[tid]
	for {
		e := c.consumeStream(port)
		switch e.Kind {
		case entWrite, entWriteBlk:
			c.staged = append(c.staged, e)
		case entRoute:
			c.routes[e.MTX] = int(e.Val)
		case entMisspec:
			misspec = true
		case entEndSub:
			if e.MTX != iter {
				panic(fmt.Sprintf("core: commit expected EndSub %d from worker %d, got %d", iter, tid, e.MTX))
			}
			return misspec, false
		case entTerminate:
			return false, true
		default:
			panic(fmt.Sprintf("core: commit: unexpected %v entry", e.Kind))
		}
	}
}

// awaitTerminateVerdict waits for the try-commit unit to confirm it
// validated everything before the loop result is final.
func (c *cuNode) awaitTerminateVerdict() {
	for c.consumeNext(c.verdict, &c.stallVerdict).Kind != entTerminate {
	}
}

// nextVerdict returns the try-commit unit's validation result for iter.
func (c *cuNode) nextVerdict(iter uint64) bool {
	e := c.consumeNext(c.verdict, &c.stallVerdict)
	if e.Kind != entVerdict {
		panic(fmt.Sprintf("core: unexpected %v entry on verdict queue", e.Kind))
	}
	if e.MTX != iter {
		panic(fmt.Sprintf("core: verdict for MTX %d while committing %d", e.MTX, iter))
	}
	return e.Val == 1
}

// consumeNext polls for the next entry, charging wait time to the caller's
// stall bucket: starvation when waiting on worker store streams,
// verdict-wait when waiting on the try-commit unit.
func (c *cuNode) consumeNext(port *queue.RecvPort[Entry], bucket *platform.Duration) Entry {
	backoff := pollMin
	for {
		if e, ok := port.TryNext(); ok {
			return e
		}
		c.sys.pollWait(c.comm, &backoff, bucket)
	}
}

// consumeStream is consumeNext on a worker store stream.
func (c *cuNode) consumeStream(port *queue.RecvPort[Entry]) Entry {
	return c.consumeNext(port, &c.stallStarve)
}

// recover orchestrates the four-phase recovery of §4.3 for a misspeculated
// iteration: broadcast + barrier (ERM), queue flush + barrier (FLQ),
// sequential re-execution of the aborted iteration (SEQ), final barrier;
// the pipeline refill cost (RFP) is measured from resume to the next
// commit.
func (c *cuNode) recover(seq *SeqCtx, failed uint64) {
	c.rec.open(c.proc, c.sys.tr)
	start, trStart := c.rec.start, c.rec.trStart
	c.epoch++
	cm := ctrlMsg{epoch: c.epoch, restart: failed + 1}
	c.tellRanks(cm)

	c.comm.Barrier(c.sys.allRanks) // B1: everyone is in recovery mode
	ermDone := c.proc.Now()
	c.result.ERM += ermDone - start
	trERM := c.sys.tr.Now()
	c.sys.tr.Span(trace.SpanERM, c.rank, trStart, failed, 0, 0)
	c.flushInputs()
	c.comm.Barrier(c.sys.allRanks) // B2: queues flushed
	flqDone := c.proc.Now()
	c.result.FLQ += flqDone - ermDone
	trFLQ := c.sys.tr.Now()
	c.sys.tr.Span(trace.SpanFLQ, c.rank, trERM, failed, 0, 0)

	// Re-execute the aborted iteration single-threaded against committed
	// state, then refresh the Copy-On-Access snapshot so restarted workers
	// initialize from the new committed memory.
	c.sys.prog.SeqIter(seq, failed)
	c.result.Committed++
	if committer, ok := c.sys.prog.(Committer); ok {
		committer.Commit(seq, failed)
	}
	c.republish()
	seqDone := c.proc.Now()
	c.result.SEQ += seqDone - flqDone
	c.sys.tr.Span(trace.SpanSEQ, c.rank, trFLQ, failed, 0, 0)

	c.comm.Barrier(c.sys.allRanks) // B3: resume parallel execution
	c.rec.close(c.proc)
	c.resumed = c.proc.Now()
	c.sys.tr.Span(trace.SpanRecovery, c.rank, trStart, failed, 0, 0)
	c.rfpStart = c.sys.tr.Now()
	c.iter = failed + 1
}

// tellRanks sends cm to every worker and the try-commit unit.
func (c *cuNode) tellRanks(cm ctrlMsg) {
	bytes := 24 + 8*len(cm.stale)
	for w := 0; w < c.sys.cfg.Workers(); w++ {
		c.comm.Send(w, tagCtrl, cm, bytes)
	}
	c.comm.Send(c.sys.cfg.tryCommitRank(), tagCtrl, cm, bytes)
}

// Selective re-arm. §4.3 re-arms protection over the whole heap at every
// worker and try-commit unit, which then re-pull their working sets through
// Copy-On-Access: most of what the refill costs. Here a rank drops only the
// pages it stored to since they were installed and the pages listed stale
// here (mem.Image.Rearm); both leave every clean page equal to the new
// snapshot.
//
// Why a kept page is right, by induction over epochs: when epoch e starts,
// every clean resident page of a rank equals snapshot S_e. During e a rank
// fills pages only from S_e — page servers swap snapshots between B2 and B3,
// when no request is in flight — and a store marks its page dirty. So at the
// next recovery a clean page p equals S_e[p], and S_{e+1}[p] = S_e[p] unless
// the commit unit wrote p since S_e: committed MTXs, Committer hooks, the SEQ
// re-execution. Snapshot marks every page of the commit image shared and a
// store un-shares it, so the pages not shared right before the new snapshot
// (AppendUnshared) are those writes, plus pages first touched by a load,
// which cost only a refetch. Dropping dirty and listed pages leaves each clean page
// equal to S_{e+1}.
//
// The list goes out before B3 on tagCtrl, and every rank receives it right
// after B3, before it touches memory (specRank.leaveRecovery). It is the
// first message of the new epoch a rank can see: anything else of that
// epoch — a progress report, the next recovery order — is sent after B3,
// and a send before B3 is already delivered on host, ordered on net's one
// commit rank, and not overtaken on vtime.
func (c *cuNode) republish() {
	stale := c.img.AppendUnshared(nil)
	c.sys.srv.setSnapshot(c.img.Snapshot())
	c.tellRanks(ctrlMsg{epoch: c.epoch, rearm: true, stale: stale})
}

// pageServer serves Copy-On-Access page requests from the snapshot of the
// commit unit's memory taken at invocation entry or at the last recovery. It
// shares the commit unit's rank (and NIC) but runs as its own process so
// page service continues while the commit unit is busy committing. A reply lends the
// snapshot's frames (mem.Image.SharePage) rather than cloning them: every
// write to a shared frame copies it first, so the frames stay as the
// snapshot took them for as long as any image maps them, and net encodes
// them on its writer goroutine unchanged.
type pageServer struct {
	sys  *System
	proc platform.Proc
	comm *mpi.Comm
	// snap is the served snapshot. On vtime the cooperative scheduler makes
	// the commit unit's swap trivially atomic; on host the commit unit and
	// the page server are separate goroutines, so publication is atomic.
	snap atomic.Pointer[mem.Image]

	// depthHW is the high-water request backlog observed on the server's
	// mailbox (host + tracer only; the stall report's shard-q column).
	depthHW int64

	// Metric handles (nil when uninstrumented).
	cReq   *trace.Counter
	cPages *trace.Counter
	gDepth *trace.Gauge
	hServe *trace.Histogram
}

// setSnapshot swaps the snapshot served to workers; called by the commit
// unit at invocation start and after each recovery, always at points where
// no page request is in flight (before tagStart, and between recovery
// barriers B2 and B3).
func (ps *pageServer) setSnapshot(snap *mem.Image) { ps.snap.Store(snap) }

func (ps *pageServer) run(p platform.Proc) {
	ps.proc = p
	ps.comm = ps.sys.world.Attach(ps.sys.cfg.commitRank(), p)
	box := ps.comm.Endpoint().Mailbox(platform.AnySource, tagPageReq)
	ps.cReq = ps.sys.tr.Metrics().Counter("coa.requests")
	ps.cPages = ps.sys.tr.Metrics().Counter("coa.pages.served")
	tr := ps.sys.tr
	// Host delivery instruments (the host mailbox exposes its backlog;
	// vtime's does not, and per-server wall latency is meaningless there).
	// The metric names keep the "shard0" of the published layer rows.
	var depther interface{ Depth() int }
	if tr.Enabled() && tr.Wall() {
		depther, _ = box.(interface{ Depth() int })
		ps.gDepth = tr.Metrics().Gauge("pagesrv.shard0.depth")
		ps.hServe = tr.Metrics().Histogram("pagesrv.shard0.serve.ns")
	}
	track := ps.sys.pageSrvTrack()
	for {
		msg, _ := box.Recv(p)
		if msg.Payload == nil {
			return // shutdown sentinel from the commit unit
		}
		if depther != nil {
			d := int64(depther.Depth())
			ps.gDepth.Set(d)
			if d > ps.depthHW {
				ps.depthHW = d
			}
		}
		t0 := tr.Now()
		req := msg.Payload.(pageReq)
		ps.cReq.Inc()
		ps.cPages.Add(uint64(req.Count))
		ps.proc.Advance(ps.sys.instrTime(ps.sys.cfg.PageServInstr + 60*int64(req.Count)))
		snap := ps.snap.Load()
		pages := make([]*mem.Page, req.Count)
		for i := range pages {
			pages[i] = snap.SharePage(req.Start + uva.PageID(i))
		}
		wire := req.Count*(uva.PageSize+8) + 56
		// RDMA put: wire time only, no per-byte CPU marshalling.
		ps.comm.Endpoint().SendClass(msg.From, tagPageReply, pages, wire, platform.ClassPage)
		if ps.hServe != nil {
			end := tr.Now()
			ps.hServe.Observe(int64(end - t0))
			tr.Span(trace.SpanPageServe, track, t0, uint64(req.Start), int64(req.Count), int64(wire))
		}
	}
}
