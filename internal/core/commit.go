package core

import (
	"fmt"
	"math/bits"

	"sync/atomic"

	"dsmtx/internal/mem"
	"dsmtx/internal/mpi"
	"dsmtx/internal/platform"
	"dsmtx/internal/queue"
	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// cuNode is one commit shard. Each owns a consistent-hashed partition of the
// page space: every shard consumes all markers and verdicts (so decisions
// replicate deterministically), stages and applies only its own partition's
// writes, and MTXs whose writes span shards commit through an ordered
// two-phase vote coordinated by the shard owning the MTX's lowest written
// page. Shard 0 is the lead: Setup, termination and Finalize run there. The
// paper's single commit unit — the only process holding authoritative
// memory, executing the sequential portions, committing each validated MTX
// atomically (group transaction commit) and orchestrating misspeculation
// recovery — is this pipeline with one shard: it owns every page,
// coordinates every MTX and never waits for a peer's vote.
type cuNode struct {
	sys   *System
	shard int
	rank  int
	proc  platform.Proc
	comm  *mpi.Comm
	img   *mem.Image
	arena *uva.Arena

	in      []*queue.RecvPort[Entry] // per worker tid
	verdict *queue.RecvPort[Entry]

	staged []Entry // group-commit staging buffer, reused across MTXs

	// Cross-shard commit state. curMask/curMin accumulate the current MTX's
	// write-owner mask and lowest written address from the EndSub markers;
	// votesBox receives ordered 2PC votes addressed to this shard as
	// coordinator; voteCount buffers early votes from run-ahead participants
	// (keyed by MTX).
	curMask   uint64
	curMin    uva.Addr
	votesBox  platform.Mailbox
	voteCount map[uint64]int

	routes   map[uint64]int
	epoch    uint64
	pollTime platform.Duration
	iter     uint64
	result   Result
	resumed  platform.Time // time of last recovery resume, 0 if none pending RFP

	// Stall attribution: pollTime split by what the poll was waiting for
	// (worker store streams vs try-commit verdicts vs cross-shard votes),
	// plus the recovery windows. rfpStart anchors the RFP span in tracer
	// time.
	stallStarve  platform.Duration
	stallVerdict platform.Duration
	voteWait     platform.Duration
	rec          window
	rfpStart     platform.Time

	// Misspeculation cause and progress-report counters (nil when
	// uninstrumented).
	cMissWorker   *trace.Counter
	cMissConflict *trace.Counter
	cReports      *trace.Counter
}

func newCUNode(s *System, shard int) *cuNode {
	c := &cuNode{sys: s, shard: shard, rank: s.cfg.commitShardRank(shard), routes: make(map[uint64]int)}
	// The image exists from construction (single-threaded, before spawn) so
	// Run can scatter the seed image into it and the lead shard can seed
	// every partition during Setup via the federated space.
	c.img = mem.NewImage(nil)
	c.img.Instrument(s.tr.Metrics())
	return c
}

// termVoteKey is the vote key non-lead shards send the lead on loop
// termination (no MTX carries this id).
const termVoteKey = ^uint64(0)

// seqSpace is the memory view sequential code (Setup, SeqIter, Finalize)
// runs against on this shard: the federated view over every shard's image.
func (c *cuNode) seqSpace() mem.Space {
	imgs := make([]*mem.Image, len(c.sys.cus))
	for k, cu := range c.sys.cus {
		imgs[k] = cu.img
	}
	return &shardSpace{sys: c.sys, imgs: imgs}
}

// coordinator resolves the ordered-2PC coordinator for the current MTX: the
// shard owning the MTX's lowest written page, or the lead for an MTX that
// wrote nothing.
func (c *cuNode) coordinator() int {
	if c.curMask == 0 {
		return 0
	}
	return c.sys.ownerOf(c.curMin.Page())
}

func (c *cuNode) run(p platform.Proc) {
	c.proc = p
	defer c.sys.recordLife(c.rank, p, p.Now())
	c.comm = c.sys.attach(c.rank, p)
	c.bind()

	seq := &SeqCtx{cfg: c.sys.cfg, proc: p, img: c.seqSpace(), arena: c.arena, instr: c.sys.instrTime}
	if c.shard == 0 {
		c.sys.prog.Setup(seq)
		// Publish the invocation-entry snapshot for Copy-On-Access service,
		// then open the parallel section: workers must not touch memory
		// before the sequential state exists. With a sharded pipeline the
		// lead wrote directly into every shard's image via the federated
		// space; peer shards have not touched their images yet (they park in
		// tagStart below), so the cross-image snapshots are race-free.
		c.sys.publishSnapshots()
		for k := 1; k < c.sys.cfg.commitShards(); k++ {
			c.comm.Send(c.sys.cfg.commitShardRank(k), tagStart, nil, 8)
		}
		for w := 0; w < c.sys.cfg.Workers(); w++ {
			c.comm.Send(w, tagStart, nil, 8)
		}
		c.comm.Send(c.sys.cfg.tryCommitRank(), tagStart, nil, 8)
	} else {
		c.comm.Recv(c.sys.cfg.commitRank(), tagStart) // lead Setup must finish first
	}

	c.commitLoop(seq)
	if c.shard == 0 {
		if f, ok := c.sys.prog.(Finalizer); ok {
			f.Finalize(seq)
		}
	}
	// Shut this rank's page server down so the simulation can drain.
	c.comm.Endpoint().Send(c.rank, tagPageReq, nil, 8)
}

func (c *cuNode) bind() {
	// The sequential arena is shared across shards: Setup, recovery
	// re-execution and Finalize may run on different shards but must
	// allocate from one bump pointer.
	c.arena = c.sys.seqArena
	ep := c.comm.Endpoint()
	c.votesBox = ep.Mailbox(platform.AnySource, tagCommitVoteBase+c.shard)
	c.voteCount = make(map[uint64]int)
	for w := 0; w < c.sys.cfg.Workers(); w++ {
		c.in = append(c.in, c.sys.toCUQ[w][c.shard].Receiver(c.comm))
	}
	c.verdict = c.sys.verdictQ[c.shard].Receiver(c.comm)
	c.cMissWorker = c.sys.tr.Metrics().Counter("misspec.worker")
	c.cMissConflict = c.sys.tr.Metrics().Counter("misspec.conflict")
	c.cReports = c.sys.tr.Metrics().Counter("window.reports")
}

// commitLoop stages each MTX's stores from the worker streams, awaits the
// try-commit verdict, and either commits atomically or recovers, until the
// loop terminates.
func (c *cuNode) commitLoop(seq *SeqCtx) {
	nShards := c.sys.cfg.commitShards()
	for {
		iter := c.iter
		c.staged = c.staged[:0]
		c.curMask, c.curMin = 0, ^uva.Addr(0)
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
			if c.shard != 0 {
				// Ordered termination vote: tell the lead this shard's
				// partition is fully committed, then exit.
				c.comm.Send(c.sys.cfg.commitShardRank(0), tagCommitVoteBase, termVoteKey, 16)
				return
			}
			c.awaitVotes(termVoteKey, nShards-1)
			// Release every parked worker and the try-commit unit.
			c.tellRanks(ctrlMsg{epoch: c.epoch, done: true})
			return
		}
		// The verdict arrives after the try-commit unit has validated every
		// subTX of this MTX. Every shard consumes the same markers and
		// verdicts, so the commit/misspeculate decision replicates
		// identically without communication.
		markerMiss := misspec
		if !c.nextVerdict(iter) {
			misspec = true
		}
		if misspec {
			if coord := c.coordinator(); c.shard != coord {
				// Stop vote: prove this shard reached the failed MTX (and so
				// consumed every earlier vote) before the coordinator
				// broadcasts the recovery epoch.
				c.comm.Send(c.sys.cfg.commitShardRank(coord), tagCommitVoteBase+coord, iter, 16)
				c.followRecovery(iter)
				continue
			}
			c.awaitVotes(iter, nShards-1)
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
		// last write to a location wins. Only this partition's stores were
		// routed here.
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
		c.shardCommit(seq, iter, spanStart, bulkBytes)
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
// workerNode.awaitWindow): while the bound is in force the lead commit unit
// tells the first-stage workers each time its commit point reaches a
// multiple of windowStride.
func (c *cuNode) reportProgress() {
	if c.shard != 0 || !c.sys.bounded() || c.iter%c.sys.windowStride != 0 {
		return
	}
	report := ctrlMsg{epoch: c.epoch, progress: c.iter}
	for _, w := range c.sys.layout.Assign[0] {
		c.cReports.Inc()
		c.comm.Send(w, tagCtrl, report, 24)
	}
}

// shardCommit finishes a clean MTX: the stores are already applied locally;
// participating shards send the coordinator their ordered prepare vote (the
// entire 2PC prepare round — the predefined commit order means ordering
// races cannot abort, only real conflicts, and those were already ruled out
// by the verdict), and the coordinator collects the votes before counting
// the MTX committed and running the Committer hook. The coordinator's
// SpanCommit covers its own partition; only a non-coordinator participant
// records SpanShardCommit.
func (c *cuNode) shardCommit(seq *SeqCtx, iter uint64, spanStart platform.Time, bulkBytes int) {
	coord := c.coordinator()
	if c.shard != coord {
		if c.curMask&(1<<uint(c.shard)) != 0 {
			c.sys.tr.Span(trace.SpanShardCommit, c.rank, spanStart, iter, int64(len(c.staged)), int64(bulkBytes))
			c.sys.tr.Instant(trace.InstShardVote, c.rank, iter, int64(coord), 0)
			c.comm.Send(c.sys.cfg.commitShardRank(coord), tagCommitVoteBase+coord, iter, 16)
		}
		return
	}
	if need := bits.OnesCount64(c.curMask &^ (1 << uint(coord))); need > 0 {
		voteStart := c.sys.tr.Now()
		c.awaitVotes(iter, need)
		c.sys.tr.Span(trace.SpanShardVoteWait, c.rank, voteStart, iter, int64(need), 0)
	}
	c.result.Committed++
	if committer, ok := c.sys.prog.(Committer); ok {
		committer.Commit(seq, iter)
	}
	c.sys.tr.Span(trace.SpanCommit, c.rank, spanStart, iter, int64(len(c.staged)), int64(bulkBytes))
}

// awaitVotes blocks until `need` votes for `key` have arrived on this
// shard's coordinator mailbox. Votes for other MTXs (run-ahead participants
// of later MTXs this shard will coordinate) are buffered, never dropped.
func (c *cuNode) awaitVotes(key uint64, need int) {
	have := c.voteCount[key]
	delete(c.voteCount, key)
	backoff := pollMin
	for have < need {
		if msg, ok := c.comm.TryRecvBox(c.votesBox); ok {
			if k := msg.Payload.(uint64); k == key {
				have++
			} else {
				c.voteCount[k]++
			}
			continue
		}
		c.sys.pollWait(c.comm, &backoff, &c.pollTime, &c.voteWait)
	}
}

// followRecovery is the non-coordinator shard's side of a cross-shard
// recovery: after sending its stop vote the shard awaits the coordinator's
// epoch broadcast, then runs the standard flush/re-protect barrier dance
// while the coordinator re-executes the failed iteration sequentially.
func (c *cuNode) followRecovery(failed uint64) {
	c.rec.open(c.proc, c.sys.tr)
	msg := c.comm.Recv(platform.AnySource, tagCtrl)
	cm := msg.Payload.(ctrlMsg)
	c.epoch = cm.epoch

	c.comm.Barrier(c.sys.allRanks) // B1: everyone is in recovery mode
	c.flushInputs()
	c.comm.Barrier(c.sys.allRanks) // B2: queues flushed
	c.comm.Barrier(c.sys.allRanks) // B3: coordinator re-executed; resume

	c.rec.close(c.proc)
	c.sys.tr.Span(trace.SpanRecovery, c.rank, c.rec.trStart, failed, 0, 0)
	c.iter = cm.restart
	c.resumed = 0
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
			// Under a sharded pipeline the marker carries the subTX's
			// write-owner mask (Val) and lowest written address (Addr);
			// accumulate them so every shard derives the same coordinator.
			c.curMask |= e.Val
			if e.Val != 0 && e.Addr < c.curMin {
				c.curMin = e.Addr
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

// consumeNext polls for the next entry, charging wait time both to the
// total (pollTime) and to the caller's stall bucket: starvation when
// waiting on worker store streams, verdict-wait when waiting on the
// try-commit unit.
func (c *cuNode) consumeNext(port *queue.RecvPort[Entry], bucket *platform.Duration) Entry {
	backoff := pollMin
	for {
		if e, ok := port.TryNext(); ok {
			return e
		}
		c.sys.pollWait(c.comm, &backoff, &c.pollTime, bucket)
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
	// As cross-shard recovery coordinator, release the peer commit shards
	// parked in followRecovery. Their stop votes arrived before this
	// broadcast, so none of them can still be committing an earlier MTX.
	for k := 0; k < c.sys.cfg.commitShards(); k++ {
		if k != c.shard {
			c.comm.Send(c.sys.cfg.commitShardRank(k), tagCtrl, cm, 24)
		}
	}

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

// Selective re-arm. The paper's recovery re-arms protection over the whole
// heap at every worker and try-commit unit (mem.Image.Reset), and each then
// re-pulls its working set through Copy-On-Access. Where ranks share CPUs
// (Platform.Concurrent, the predicate boundRunAhead uses) that refetch is
// what the refill costs, so there a rank drops only the pages it stored to
// since they were installed and the pages listed stale here, and keeps the
// rest (mem.Image.Rearm). vtime keeps Reset, and with it Figure 6.
//
// Why a kept page is right, by induction over epochs: when epoch e starts,
// every clean resident page of a rank equals snapshot S_e. During e a rank
// fills pages only from S_e — page servers swap snapshots between B2 and B3,
// when no request is in flight — and a store marks its page dirty. So at the
// next recovery a clean page p equals S_e[p], and S_{e+1}[p] = S_e[p] unless
// a commit unit wrote p since S_e: committed MTXs, Committer hooks, the SEQ
// re-execution. Snapshot marks every page of a commit image shared and a
// store un-shares it, so the pages not shared right before the new snapshot
// (AppendUnshared, over every shard's image — peers are parked between B2
// and B3) are those writes, plus pages first touched by a load, which cost
// only a refetch. Dropping dirty and listed pages leaves each clean page
// equal to S_{e+1}.
//
// The list goes out before B3 on tagCtrl, and every rank receives it right
// after B3, before it touches memory (awaitRearm). It is the first message
// of the new epoch a rank can see: anything else of that epoch — a progress
// report, the next recovery order — is sent after B3, and a send before B3
// is already delivered on host and ordered on net's one commit rank.
func (c *cuNode) republish() {
	live := c.sys.plat.Concurrent()
	var stale []uva.PageID
	if live {
		for _, cu := range c.sys.cus {
			stale = cu.img.AppendUnshared(stale)
		}
	}
	c.sys.publishSnapshots()
	if live {
		c.tellRanks(ctrlMsg{epoch: c.epoch, rearm: true, stale: stale})
	}
}

// awaitRearm receives the stale list of epoch (republish); anything read
// before it on the control mailbox is from an earlier epoch, and stale.
func awaitRearm(comm *mpi.Comm, epoch uint64) []uva.PageID {
	for {
		if cm := comm.Recv(platform.AnySource, tagCtrl).Payload.(ctrlMsg); cm.rearm && cm.epoch == epoch {
			return cm.stale
		}
	}
}

// pageServer serves Copy-On-Access page requests for one commit unit's
// partition of the page space (all of it with a single commit unit) from the
// invocation-entry snapshot of that unit's memory. It shares the commit
// unit's rank (and NIC) but runs as its own process so page service
// continues while the commit unit is busy committing. A reply lends the
// snapshot's frames (mem.Image.SharePage) rather than cloning them: every
// write to a shared frame copies it first, so the frames stay as the
// snapshot took them for as long as any image maps them, and net encodes
// them on its writer goroutine unchanged.
type pageServer struct {
	sys   *System
	shard int
	proc  platform.Proc
	comm  *mpi.Comm
	// snap is the served snapshot. On vtime the cooperative scheduler makes
	// the commit unit's swap trivially atomic; on host the commit unit and
	// the page server are separate goroutines, so publication is atomic.
	snap atomic.Pointer[mem.Image]

	// Requests counts served requests (diagnostic; read after Run joins).
	Requests uint64
	// depthHW is the high-water request backlog observed on this server's
	// mailbox (host + tracer only; the stall report's shard-q column).
	depthHW int64

	// Metric handles (nil when uninstrumented).
	cReq   *trace.Counter
	cPages *trace.Counter
	gDepth *trace.Gauge
	hServe *trace.Histogram
}

func newPageServer(s *System, shard int) *pageServer { return &pageServer{sys: s, shard: shard} }

// setSnapshot swaps the snapshot served to workers; called by the commit
// unit at invocation start and after each recovery, always at points where
// no page request is in flight (before tagStart, and between recovery
// barriers B2 and B3).
func (ps *pageServer) setSnapshot(snap *mem.Image) { ps.snap.Store(snap) }

func (ps *pageServer) run(p platform.Proc) {
	ps.proc = p
	ps.comm = ps.sys.world.Attach(ps.sys.cfg.commitShardRank(ps.shard), p)
	box := ps.comm.Endpoint().Mailbox(platform.AnySource, tagPageReq)
	ps.cReq = ps.sys.tr.Metrics().Counter("coa.requests")
	ps.cPages = ps.sys.tr.Metrics().Counter("coa.pages.served")
	tr := ps.sys.tr
	// Host delivery instruments (the host mailbox exposes its backlog;
	// vtime's does not, and per-server wall latency is meaningless there).
	var depther interface{ Depth() int }
	if tr.Enabled() && tr.Wall() {
		depther, _ = box.(interface{ Depth() int })
		ps.gDepth = tr.Metrics().Gauge(fmt.Sprintf("pagesrv.shard%d.depth", ps.shard))
		ps.hServe = tr.Metrics().Histogram(fmt.Sprintf("pagesrv.shard%d.serve.ns", ps.shard))
	}
	track := ps.sys.pageSrvTrack(ps.shard)
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
		ps.Requests++
		ps.cReq.Inc()
		ps.cPages.Add(uint64(req.Count))
		ps.proc.Advance(ps.sys.instrTime(ps.sys.cfg.PageServInstr + 60*int64(req.Count)))
		snap := ps.snap.Load()
		pages := make([]*mem.Page, req.Count)
		for i := range pages {
			pages[i] = snap.SharePage(req.Start + uva.PageID(i))
		}
		wire := req.Count*(uva.PageSize+8) + 56
		if req.Grain > 0 {
			wire = req.Grain + 56 // sub-page chunk (word-granularity ablation)
		}
		// RDMA put: wire time only, no per-byte CPU marshalling.
		ps.comm.Endpoint().SendClass(msg.From, tagPageReply, pages, wire, platform.ClassPage)
		if ps.hServe != nil {
			end := tr.Now()
			ps.hServe.Observe(int64(end - t0))
			tr.Span(trace.SpanPageServe, track, t0, uint64(req.Start), int64(req.Count), int64(wire))
		}
	}
}
