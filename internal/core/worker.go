package core

import (
	"fmt"
	"sort"

	"dsmtx/internal/pipeline"
	"dsmtx/internal/platform"
	"dsmtx/internal/queue"
	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// workerNode is one worker process: it executes its pipeline stage's subTXs
// iteration after iteration in its own private memory, forwarding
// speculative state over queues.
type workerNode struct {
	specRank
	tid     int
	stage   int
	poolIdx int
	arena   *uva.Arena

	outStages []int                                  // sorted destination stages
	edgeOut   map[int]map[int]*queue.SendPort[Entry] // dstStage -> dstTid -> port
	inStages  []int                                  // sorted source stages
	edgeIn    map[int]map[int]*queue.RecvPort[Entry] // fromStage -> srcTid -> port
	toTC      *queue.SendPort[Entry]
	toCU      *queue.SendPort[Entry]
	syncOut   *queue.SendPort[Entry]
	syncIn    *queue.RecvPort[Entry]

	inbox []inboxQ // by source stage: data entries buffered for current iter
	ctx   Ctx      // the one Ctx every subTX of this worker runs against

	// Feeder-side dynamic routing (this worker feeds the routed stage).
	feedsRouted bool
	// occRouted: this worker is in the routed pool under occupancy routing,
	// so it acks every iteration and may go without one indefinitely.
	occRouted   bool
	routedPool  []int
	occAckBox   platform.Mailbox // completion acks from the routed pool (occupancy routing)
	outstanding []int
	rrNext      int
	curRoute    int

	// Consumer-side routes for the routed stage (route-sink workers).
	routesIn map[uint64]int // iter -> srcTid

	sinceFlush int

	// Stall attribution: poll time by cause.
	stallStarve platform.Duration // consumeNext polling an empty upstream queue
	stallBack   platform.Duration // occupancy-routing waits
	held        window            // run-ahead-window waits (awaitWindow)

	epochBase   uint64 // first iteration of the current epoch
	progress    uint64 // newest commit point reported this epoch (awaitWindow)
	nextIter    uint64
	curIter     uint64
	poisoned    bool
	selfMisspec bool

	subTXs uint64         // stage bodies run, squashed ones included (Result.SubTXs)
	cWaits *trace.Counter // window.waits (nil when uninstrumented)
	cDry   *trace.Counter // window.dryflush (nil when uninstrumented)
}

func newWorkerNode(s *System, tid int) *workerNode {
	w := &workerNode{
		specRank: specRank{sys: s, rank: tid},
		tid:      tid,
		stage:    s.layout.StageOf(tid),
		poolIdx:  s.layout.PoolIndex(tid),
		edgeOut:  make(map[int]map[int]*queue.SendPort[Entry]),
		edgeIn:   make(map[int]map[int]*queue.RecvPort[Entry]),
		inbox:    make([]inboxQ, len(s.cfg.Plan.Stages)),
		routesIn: make(map[uint64]int),
	}
	w.ctx.w = w
	return w
}

// inboxQ is one source stage's pipeline data for the current iteration;
// data[pos:] is not consumed yet. Clearing keeps the storage.
type inboxQ struct {
	data []Entry
	pos  int
}

// clearInbox empties every stage's inbox, keeping its storage for the next
// iteration but not the payloads it referenced.
func (w *workerNode) clearInbox() {
	for i := range w.inbox {
		clear(w.inbox[i].data)
		w.inbox[i] = inboxQ{data: w.inbox[i].data[:0]}
	}
}

func (w *workerNode) run(p platform.Proc) {
	defer w.sys.recordLife(w.rank, p, p.Now())
	w.bind(p)
	w.comm.Recv(w.sys.cfg.commitRank(), tagStart) // Setup must finish first
	for {
		// After loop exit, park until the commit unit's final verdict.
		if untilRecovery(w.stageLoop) && w.awaitDoneOrRecovery() {
			return
		}
		w.doRecovery()
	}
}

// bind caches the rank's mailboxes and attaches its queue ports.
func (w *workerNode) bind(p platform.Proc) {
	w.specRank.bind(p)
	ep := w.comm.Endpoint()
	w.cWaits = w.sys.tr.Metrics().Counter("window.waits")
	w.cDry = w.sys.tr.Metrics().Counter("window.dryflush")
	w.arena = uva.NewArena(w.tid + 1)

	for key, q := range w.sys.edgeQ {
		src, dst := key[0], key[1]
		switch {
		case src == w.tid:
			dstStage := w.sys.layout.StageOf(dst)
			if w.edgeOut[dstStage] == nil {
				w.edgeOut[dstStage] = make(map[int]*queue.SendPort[Entry])
				w.outStages = append(w.outStages, dstStage)
			}
			w.edgeOut[dstStage][dst] = q.Sender(w.comm)
		case dst == w.tid:
			fromStage := w.sys.layout.StageOf(src)
			if w.edgeIn[fromStage] == nil {
				w.edgeIn[fromStage] = make(map[int]*queue.RecvPort[Entry])
				w.inStages = append(w.inStages, fromStage)
			}
			w.edgeIn[fromStage][src] = q.Receiver(w.comm)
		}
	}
	sort.Ints(w.outStages)
	sort.Ints(w.inStages)

	w.toTC = w.sys.toTCQ[w.tid].Sender(w.comm)
	w.toCU = w.sys.toCUQ[w.tid].Sender(w.comm)

	if w.sys.cfg.Plan.Sync {
		w.syncOut = w.sys.syncQ[w.tid].Sender(w.comm)
		w.syncIn = w.sys.syncQ[w.sys.prevPool(w.tid)].Receiver(w.comm)
	}
	w.occRouted = w.sys.cfg.Plan.Occupancy && w.stage == w.sys.routedStage
	if w.sys.routedStage >= 0 && w.stage == w.sys.routedStage-1 {
		w.feedsRouted = true
		w.routedPool = w.sys.layout.Assign[w.sys.routedStage]
		w.outstanding = make([]int, len(w.routedPool))
		if w.sys.cfg.Plan.Occupancy {
			w.occAckBox = ep.Mailbox(platform.AnySource, tagOccAck)
		}
	}
}

// stageLoop runs iterations until loop termination (true); a recovery
// broadcast unwinds it.
func (w *workerNode) stageLoop() bool {
	first := len(w.inStages) == 0
	kind := w.sys.cfg.Plan.Stages[w.stage].Kind
	for {
		w.checkCtrl()
		var iter uint64
		switch {
		case first && kind == pipeline.Sequential:
			iter = w.nextIter
		case first: // self-scheduled parallel first stage (Spec-DOALL, TLS)
			iter = w.nextAssigned()
		default:
			it, term := w.refresh()
			if term {
				w.emitTerminate()
				return true
			}
			iter = it
		}
		if first {
			w.awaitWindow(iter)
		}
		w.curIter = iter
		if w.feedsRouted {
			w.chooseRoute(iter)
		}
		spanStart := w.sys.tr.Now()
		ok := true
		if !w.poisoned {
			w.subTXs++
			ok = w.runStage(iter)
		}
		if first && !ok {
			w.emitTerminate()
			return true
		}
		w.endIter(iter)
		w.sys.tr.Span(trace.SpanSubTX, w.rank, spanStart, iter, int64(w.stage), 0)
		w.nextIter = iter + 1
		w.poisoned = false
		w.selfMisspec = false
	}
}

// nextAssigned reports the smallest iteration >= nextIter this worker owns
// under round-robin self-scheduling.
func (w *workerNode) nextAssigned() uint64 {
	pool := uint64(len(w.sys.layout.Assign[w.stage]))
	k := w.nextIter
	want := uint64(w.poolIdx)
	if rem := k % pool; rem != want {
		k += (want - rem + pool) % pool
	}
	return k
}

// runStage executes the program's stage body, converting Ctx.Misspec
// unwinding into the poisoned state.
func (w *workerNode) runStage(iter uint64) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isMiss := r.(misspecSignal); isMiss {
				w.poisoned = true
				w.selfMisspec = true
				ok = true
				return
			}
			panic(r)
		}
	}()
	w.ctx.iter = iter
	return w.sys.prog.Stage(&w.ctx, w.stage, iter)
}

// refresh consumes the predecessor subTX(s) of the next iteration: it
// applies forwarded uncommitted stores to private memory, buffers pipeline
// data for Consume, and learns the iteration number (mtx_begin's "updating
// memory with stores in this MTX by earlier subTXs").
func (w *workerNode) refresh() (iter uint64, term bool) {
	w.clearInbox()
	if w.sys.cfg.Plan.Stages[w.stage].Kind == pipeline.Parallel {
		// A fed parallel stage has exactly one inbound edge; the next
		// EndSub marker names the iteration routed to this worker.
		fromStage := w.inStages[0]
		var port *queue.RecvPort[Entry]
		for _, p := range w.edgeIn[fromStage] {
			port = p
		}
		return w.drainSub(port, fromStage, nil)
	}
	// Sequential stage: iteration nextIter, one subTX per inbound edge in
	// stage order (route records on earlier edges resolve later ones).
	iter = w.nextIter
	for _, fromStage := range w.inStages {
		srcTid := w.inboundRoute(fromStage, iter)
		port := w.edgeIn[fromStage][srcTid]
		if _, t := w.drainSub(port, fromStage, &iter); t {
			return 0, true
		}
	}
	return iter, false
}

// drainSub consumes one subTX worth of entries from port. If expect is
// non-nil the EndSub must match *expect; otherwise the EndSub's iteration is
// returned.
func (w *workerNode) drainSub(port *queue.RecvPort[Entry], fromStage int, expect *uint64) (iter uint64, term bool) {
	for {
		e := w.consumeNext(port)
		switch e.Kind {
		case entWrite:
			w.img.Store(e.Addr, e.Val)
		case entWriteBlk:
			w.img.StoreBytes(e.Addr, e.Payload.([]byte))
		case entData:
			q := &w.inbox[fromStage]
			q.data = append(q.data, e)
		case entRoute:
			w.routesIn[e.MTX] = w.sys.layout.Assign[w.sys.routedStage][e.Val]
		case entMisspec:
			w.poisoned = true
		case entEndSub:
			if expect != nil && e.MTX != *expect {
				panic(fmt.Sprintf("core: worker %d expected EndSub %d from stage %d, got %d",
					w.tid, *expect, fromStage, e.MTX))
			}
			return e.MTX, false
		case entTerminate:
			return 0, true
		default:
			panic(fmt.Sprintf("core: worker %d: unexpected %v entry in forward stream", w.tid, e.Kind))
		}
	}
}

// inboundRoute resolves which worker executed stage fromStage of iteration
// iter.
func (w *workerNode) inboundRoute(fromStage int, iter uint64) int {
	if fromStage == w.sys.routedStage {
		tid, ok := w.routesIn[iter]
		if !ok {
			panic(fmt.Sprintf("core: worker %d has no route record for MTX %d", w.tid, iter))
		}
		delete(w.routesIn, iter)
		return tid
	}
	return w.sys.layout.WorkerOf(fromStage, iter)
}

// routeFor resolves the destination worker for an outbound edge of the
// current iteration.
func (w *workerNode) routeFor(dstStage int, iter uint64) int {
	if dstStage == w.sys.routedStage {
		if !w.feedsRouted {
			panic("core: only the feeder stage may target the routed stage")
		}
		return w.routedPool[w.curRoute]
	}
	return w.sys.layout.WorkerOf(dstStage, iter)
}

// occWindow bounds outstanding iterations per worker under occupancy-based
// routing; the router blocks for a completion ack when every worker is
// saturated (bounded-queue backpressure).
const occWindow = 1

// chooseRoute picks the routed-stage worker for an iteration — round-robin,
// or least-outstanding-work when occupancy routing is on (179.art) — and
// publishes the decision to the try-commit unit, the commit unit, and the
// downstream sequential stage.
func (w *workerNode) chooseRoute(iter uint64) {
	if w.sys.cfg.Plan.Occupancy {
		// Dispatch to the least-loaded worker, bounded: when every pool
		// member already holds occWindow outstanding iterations, wait for
		// a completion ack — the backpressure a bounded queue gives the
		// paper's occupancy-based distributor.
		backoff := pollMin
		for {
			for {
				msg, ok := w.comm.TryRecvBox(w.occAckBox)
				if !ok {
					break
				}
				for i, tid := range w.routedPool {
					if tid == msg.From {
						w.outstanding[i]--
					}
				}
			}
			best := w.rrNext % len(w.routedPool)
			for off := 0; off < len(w.routedPool); off++ {
				i := (w.rrNext + off) % len(w.routedPool)
				if w.outstanding[i] < w.outstanding[best] {
					best = i
				}
			}
			if w.outstanding[best] < occWindow {
				w.curRoute = best
				break
			}
			w.flushMarkers()
			w.checkCtrl()
			w.sys.pollWait(w.comm, &backoff, &w.stallBack)
		}
	} else {
		w.curRoute = w.rrNext % len(w.routedPool)
	}
	w.rrNext = (w.curRoute + 1) % len(w.routedPool)
	w.outstanding[w.curRoute]++

	e := Entry{Kind: entRoute, MTX: iter, Val: uint64(w.curRoute)}
	w.toTC.Produce(e)
	w.toCU.Produce(e)
	if w.sys.routeSink >= 0 {
		w.edgeOut[w.sys.routeSink][w.sys.layout.Assign[w.sys.routeSink][0]].Produce(e)
	}
}

// endIter closes this worker's subTX: misspeculation markers (if any), the
// EndSub marker on every outbound stream, and an explicit flush so
// uncommitted values reach later subTXs promptly (mtx_end).
func (w *workerNode) endIter(iter uint64) {
	if w.poisoned || w.selfMisspec {
		w.sys.tr.Instant(trace.InstMisspec, w.rank, iter, 0, 0)
		miss := Entry{Kind: entMisspec, MTX: iter}
		for _, dstStage := range w.outStages {
			w.edgeOut[dstStage][w.routeFor(dstStage, iter)].Produce(miss)
		}
		w.toTC.Produce(miss)
		w.toCU.Produce(miss)
	}
	end := Entry{Kind: entEndSub, MTX: iter}
	for _, dstStage := range w.outStages {
		port := w.edgeOut[dstStage][w.routeFor(dstStage, iter)]
		port.Produce(end)
		port.Flush() // pipeline edges flush every subTX: consumers block on them
	}
	w.toTC.Produce(end)
	w.toCU.Produce(end)
	// Validation/commit streams batch across iterations; misspeculation
	// flushes immediately so recovery is not delayed by batching.
	w.sinceFlush++
	if w.sinceFlush >= w.sys.cfg.MarkerFlushIters || w.poisoned || w.selfMisspec {
		w.flushMarkers()
	}
	if w.occRouted {
		feeder := w.sys.layout.Assign[w.stage-1][0]
		w.comm.Send(feeder, tagOccAck, iter, 16)
	}
}

// emitTerminate broadcasts loop termination on every outbound stream.
func (w *workerNode) emitTerminate() {
	t := Entry{Kind: entTerminate, MTX: w.curIter}
	for _, dstStage := range w.outStages {
		// Iterate destinations in layout order, not map order: each send
		// serializes on the NIC, so a nondeterministic broadcast order
		// would perturb downstream virtual time.
		for _, dst := range w.sys.layout.Assign[dstStage] {
			port := w.edgeOut[dstStage][dst]
			port.Produce(t)
			port.Flush()
		}
	}
	w.toTC.Produce(t)
	w.toCU.Produce(t)
	w.flushMarkers()
}

// flushMarkers forces any batched validation/commit stream out. It MUST be
// called before a worker blocks mid-iteration (SyncRecv, occupancy waits):
// otherwise its completed subTX markers sit in the batch, the commit unit
// cannot advance past them, and a misspeculation that would unblock the
// ring is never detected — a deadlock.
func (w *workerNode) flushMarkers() {
	w.toTC.Flush()
	w.toCU.Flush()
	w.sinceFlush = 0
}

// consumeNext polls a queue with adaptive backoff, watching for the commit
// unit's recovery broadcast so blocked workers always unwind.
func (w *workerNode) consumeNext(port *queue.RecvPort[Entry]) Entry {
	backoff := pollMin
	for {
		if e, ok := port.TryNext(); ok {
			return e
		}
		w.checkCtrl()
		if w.sinceFlush > 0 && w.occRouted {
			// Upstream may be held at the run-ahead bound, on a commit point
			// that cannot pass the markers batched here: occupancy routing
			// may deal this worker nothing more (see boundRunAhead).
			w.cDry.Inc()
			w.flushMarkers()
		}
		w.sys.pollWait(w.comm, &backoff, &w.stallStarve)
	}
}

// checkCtrl unwinds to the recovery handler if the commit unit has
// broadcast a new epoch.
func (w *workerNode) checkCtrl() {
	// Drain, not read one: a recovery order may sit behind progress reports.
	for msg, ok := w.comm.TryRecvBox(w.ctrlBox); ok; msg, ok = w.comm.TryRecvBox(w.ctrlBox) {
		w.onCtrl(msg.Payload.(ctrlMsg))
	}
}

// onCtrl acts on one control message: a newer epoch unwinds to recovery, a
// progress report of this epoch raises progress, anything else is stale.
func (w *workerNode) onCtrl(cm ctrlMsg) {
	w.recoverOn(cm)
	if cm.epoch == w.epoch && cm.progress > w.progress {
		w.progress = cm.progress
	}
}

// Bounded run-ahead. Nothing upstream throttles the first pipeline stage,
// and a misspeculation squashes everything it ran ahead (commit order is
// predefined, so every later in-flight MTX goes). How far speculation may
// lead is part of the protocol, not of the machine, so every backend runs
// one bound and vtime reproduces the schedules host and net run. In every
// epoch from an invocation's first iteration, the commit unit reports its
// commit point to the first-stage workers at every multiple of windowStride
// (cuNode.reportProgress), and one starts iteration i only while
//
//	i < progress + (progress - epochBase) + floor
//
// where progress is the newest report of the epoch, or epochBase before the
// first: a lead bounded by the clean streak since the epoch began (iteration 0
// of the invocation, or a recovery's restart), so a misspeculation squashes
// at most what its epoch committed plus the floor, and a long clean streak
// grows the bound back to unbounded. An epoch starts with a lead of exactly
// the floor; the first report doubles it.
//
// With M = MarkerFlushIters and P the largest stage pool, stride = M·(P+1)
// and floor = 2·stride (windowEnd). A stride is how far the commit point
// trails an MTX whose subTXs have all run: a pool worker batches the markers
// of under M subTXs, which round-robin dealing spreads over under M·P
// iterations, and the try-commit unit batches under M verdicts. With a floor
// of two the report that lifts the bound is sent while the pipeline is still
// full, not once it has drained.
//
// Why a blocking wait at the head of every pipeline cannot wedge. The waiter
// blocks in Recv on the control mailbox (not pollWait, whose spin is CPU the
// ranks it waits for need), so it reads every report sent, and progress is
// then within a stride of the commit point c: before an epoch's first report
// c is below the first multiple of the stride past epochBase, so progress =
// epochBase > c - stride too. A worker held at i thus has i >= progress +
// floor > c + stride. Take every first-stage worker held or past its exit
// test, and i the least held. Every iteration below i that the loop has
// (trip count n) has run at stage 0 — a TLS worker blocked in SyncRecv waits
// on one of them, and flushes before it blocks — with its markers flushed:
// the waiter flushes before it blocks, emitTerminate flushes. Pipeline edges
// flush every subTX, so each iteration below min(i, n) has run at every
// stage, and a later-stage worker's batch holds its last under M subTXs. On
// a round-robin pool those are iterations at or above min(i, n) - (M-1)·P.
// Occupancy routing can deal a pool worker nothing for as long as the others
// keep up, so its batch could be arbitrarily old: that worker, and only it,
// flushes its markers whenever it runs dry (consumeNext, counted by
// window.dryflush). What is left beyond the stage batches is the try-commit
// unit's under M verdicts, mid-loop or stopped at loop exit collecting
// terminates, so c >= min(i, n) - (M-1)·(P+1) > min(i, n) - stride. If i <= n
// that contradicts i > c + stride; otherwise i is an exit test, below n + P,
// and i - c < P + (M-1)·(P+1) < stride does.
//
// The argument never uses a recovery, so it holds from epoch 0. The floor
// is admitted unchecked, so a loop whose exit tests all fall below it never
// waits, and one held before the first report is either case above. Each
// chained invocation builds a new System, so its epoch 0 starts at its own
// iteration 0 with no report carried over. A recovery order arrives on the
// mailbox the waiter blocks on and unwinds it; since one may sit behind
// reports, checkCtrl drains the mailbox.
func (s *System) boundRunAhead() {
	pool := 0
	for _, tids := range s.layout.Assign {
		pool = max(pool, len(tids))
	}
	s.windowStride = uint64(max(s.cfg.MarkerFlushIters, 1) * (pool + 1))
}

// windowEnd is the first iteration the bound does not admit yet.
func (w *workerNode) windowEnd() uint64 {
	return w.progress + (w.progress - w.epochBase) + 2*w.sys.windowStride
}

// awaitWindow holds a first-stage worker at iteration iter until the bound
// admits it. The wait (held) is the stall table's backpressure.
func (w *workerNode) awaitWindow(iter uint64) {
	if iter < w.windowEnd() {
		return
	}
	w.flushMarkers() // the commit point cannot pass a marker still batched here
	w.cWaits.Inc()
	w.held.open(w.proc, w.sys.tr)
	defer w.held.close(w.proc) // a recovery order unwinds through here
	for iter >= w.windowEnd() {
		w.onCtrl(w.comm.Recv(platform.AnySource, tagCtrl).Payload.(ctrlMsg))
	}
}

// doRecovery is the worker side of §4.3: barrier, flush speculative queues,
// barrier, discard speculative memory (re-arming page protection), final
// barrier, then resume at the restart iteration.
func (w *workerNode) doRecovery() {
	cm := w.enterRecovery()
	for _, dstStage := range w.outStages {
		for _, dst := range w.sys.layout.Assign[dstStage] {
			w.edgeOut[dstStage][dst].Abort(cm.epoch)
		}
	}
	for _, fromStage := range w.inStages {
		for _, src := range w.sys.layout.Assign[fromStage] {
			w.edgeIn[fromStage][src].Abort(cm.epoch)
		}
	}
	w.toTC.Abort(cm.epoch)
	w.toCU.Abort(cm.epoch)
	if w.syncOut != nil {
		w.syncOut.Abort(cm.epoch)
		w.syncIn.Abort(cm.epoch)
	}
	// Drop the private state recovery discards: buffered pipeline data,
	// route records and occupancy counts, the arena, and the current
	// iteration's poison.
	w.clearInbox()
	w.routesIn = make(map[uint64]int)
	clear(w.outstanding)
	w.rrNext = 0
	w.arena = uva.NewArena(w.tid + 1)
	w.poisoned = false
	w.selfMisspec = false
	w.epochBase = cm.restart
	w.progress = cm.restart
	w.nextIter = cm.restart
	w.leaveRecovery(cm)
}
