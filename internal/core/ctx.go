package core

import (
	"fmt"
	"math"

	"dsmtx/internal/mem"
	"dsmtx/internal/uva"
)

func bitsOf(f float64) uint64  { return math.Float64bits(f) }
func floatOf(b uint64) float64 { return math.Float64frombits(b) }

// misspecSignal unwinds a stage body when it detects misspeculation.
type misspecSignal struct{}

// Ctx is the worker-side API a Program's stage code runs against — the Go
// rendering of the Table 1 worker operations. All addresses are unified
// virtual addresses, valid identically on every node.
//
// Memory discipline: Load/Store touch only this worker's private versioned
// memory (Copy-On-Access faults pull committed pages on first touch).
// Read additionally forwards the observed value to the try-commit unit for
// validation — use it for loads whose cross-iteration independence is
// speculated. Write additionally forwards the store down the pipeline and
// to the try-commit and commit units — every store whose effect must
// survive the loop (or be seen by later stages) must use Write/WriteTo,
// or it will be lost at commit time.
//
// A *Ctx is valid only during the Stage call it was passed to: the worker
// reuses it for its next subTX, so stage code must not retain it.
type Ctx struct {
	w    *workerNode
	iter uint64
}

// Iter reports the loop iteration (MTX) this subTX belongs to.
func (c *Ctx) Iter() uint64 { return c.iter }

// Stage reports the pipeline stage this worker executes.
func (c *Ctx) Stage() int { return c.w.stage }

// PoolIndex reports this worker's index within its stage's pool.
func (c *Ctx) PoolIndex() int { return c.w.poolIdx }

// PoolSize reports the number of workers in this worker's stage.
func (c *Ctx) PoolSize() int { return len(c.w.sys.layout.Assign[c.w.stage]) }

// EpochFirst reports whether this is the first iteration executed after the
// start of the loop or after a recovery — i.e. there is no in-flight
// predecessor iteration, so synchronized values must be read from committed
// memory rather than received.
func (c *Ctx) EpochFirst() bool { return c.iter == c.w.epochBase }

// Compute charges n instructions of computation to this worker.
func (c *Ctx) Compute(n int64) { c.w.proc.Advance(c.w.sys.instrTime(n)) }

// Load reads a word from private memory (COA on first touch of a page).
func (c *Ctx) Load(addr uva.Addr) uint64 {
	c.Compute(c.w.sys.cfg.LoadInstr)
	return c.w.img.Load(addr)
}

// Store writes a word to private memory only. The value is *not* forwarded:
// use it for thread-local scratch whose value never needs to commit.
func (c *Ctx) Store(addr uva.Addr, v uint64) {
	c.Compute(c.w.sys.cfg.StoreInstr)
	c.w.img.Store(addr, v)
}

// Read performs a speculative load: the loaded value is forwarded to the
// try-commit unit, which validates it against the committed state when this
// MTX tries to commit (the unified value prediction/checking of §3.1).
func (c *Ctx) Read(addr uva.Addr) uint64 {
	v := c.Load(addr)
	c.w.toTC.Produce(Entry{Kind: entRead, MTX: c.iter, Addr: addr, Val: v})
	return v
}

// Write performs a speculative store, forwarding it to every later pipeline
// stage of this MTX and to the try-commit and commit units (mtx_writeAll).
func (c *Ctx) Write(addr uva.Addr, v uint64) {
	c.Store(addr, v)
	e := Entry{Kind: entWrite, MTX: c.iter, Addr: addr, Val: v}
	for _, dstStage := range c.w.outStages {
		c.w.edgeOut[dstStage][c.w.routeFor(dstStage, c.iter)].Produce(e)
	}
	c.w.toTC.Produce(e)
	c.w.toCU.Produce(e)
}

// WriteTo performs a speculative store forwarded only to the worker
// executing stage dstStage of this MTX, plus the try-commit and commit
// units (a value needed by one consumer; mtx_writeTo).
func (c *Ctx) WriteTo(dstStage int, addr uva.Addr, v uint64) {
	c.Store(addr, v)
	e := Entry{Kind: entWrite, MTX: c.iter, Addr: addr, Val: v}
	ports, ok := c.w.edgeOut[dstStage]
	if !ok {
		panic(fmt.Sprintf("core: WriteTo(%d) from stage %d: no such edge", dstStage, c.w.stage))
	}
	ports[c.w.routeFor(dstStage, c.iter)].Produce(e)
	c.w.toTC.Produce(e)
	c.w.toCU.Produce(e)
}

// WriteCommit performs a speculative store forwarded only to the commit
// unit (mtx_writeTo targeting the commit process): for output-only data no
// later subTX or speculative load ever observes, skipping the pipeline and
// validation streams.
func (c *Ctx) WriteCommit(addr uva.Addr, v uint64) {
	c.Store(addr, v)
	c.w.toCU.Produce(Entry{Kind: entWrite, MTX: c.iter, Addr: addr, Val: v})
}

// WriteBytesCommit is the bulk form of WriteCommit.
func (c *Ctx) WriteBytesCommit(addr uva.Addr, b []byte) {
	c.StoreBytes(addr, b)
	c.w.toCU.Produce(Entry{Kind: entWriteBlk, MTX: c.iter, Addr: addr, Payload: b, Bytes: len(b)})
}

// WriteFloatCommit is WriteCommit for float64 words.
func (c *Ctx) WriteFloatCommit(addr uva.Addr, v float64) { c.WriteCommit(addr, bitsOf(v)) }

// ReadFloat is Read for float64 words.
func (c *Ctx) ReadFloat(addr uva.Addr) float64 { return floatOf(c.Read(addr)) }

// WriteFloat is Write for float64 words.
func (c *Ctx) WriteFloat(addr uva.Addr, v float64) { c.Write(addr, bitsOf(v)) }

// LoadFloat is Load for float64 words.
func (c *Ctx) LoadFloat(addr uva.Addr) float64 { return floatOf(c.Load(addr)) }

// StoreFloat is Store for float64 words.
func (c *Ctx) StoreFloat(addr uva.Addr, v float64) { c.Store(addr, bitsOf(v)) }

// bulkCost charges block-transfer CPU time.
func (c *Ctx) bulkCost(n int) {
	c.w.proc.Advance(c.w.sys.instrTime(int64(float64(n) * c.w.sys.cfg.BulkInstrPerByte)))
}

// LoadBytes reads n bytes from private memory (COA faults page by page).
// Non-speculative: the block's independence must be guaranteed, e.g. by
// memory versioning.
func (c *Ctx) LoadBytes(addr uva.Addr, n int) []byte {
	c.bulkCost(n)
	return c.w.img.LoadBytes(addr, n)
}

// LoadBytesInto is LoadBytes into the caller's buffer, at the same charge.
func (c *Ctx) LoadBytesInto(dst []byte, addr uva.Addr) {
	c.bulkCost(len(dst))
	c.w.img.LoadBytesInto(dst, addr)
}

// StoreBytes writes a block to private memory only.
func (c *Ctx) StoreBytes(addr uva.Addr, b []byte) {
	c.bulkCost(len(b))
	c.w.img.StoreBytes(addr, b)
}

// ReadBytes performs a bulk speculative read: the block's checksum is
// forwarded to the try-commit unit, which validates it against the
// committed bytes when this MTX tries to commit.
func (c *Ctx) ReadBytes(addr uva.Addr, n int) []byte {
	b := c.LoadBytes(addr, n)
	c.w.toTC.Produce(Entry{Kind: entReadBlk, MTX: c.iter, Addr: addr, Val: mem.ChecksumBytes(b), Bytes: n})
	return b
}

// WriteBytes performs a bulk speculative store, forwarded like Write to
// every later stage and the try-commit and commit units.
func (c *Ctx) WriteBytes(addr uva.Addr, b []byte) {
	c.StoreBytes(addr, b)
	e := Entry{Kind: entWriteBlk, MTX: c.iter, Addr: addr, Payload: b, Bytes: len(b)}
	for _, dstStage := range c.w.outStages {
		c.w.edgeOut[dstStage][c.w.routeFor(dstStage, c.iter)].Produce(e)
	}
	c.w.toTC.Produce(e)
	c.w.toCU.Produce(e)
}

// Produce enqueues a word of pipeline dataflow for stage dstStage of this
// MTX (mtx_produce). The consumer retrieves it with Consume in the same
// order.
func (c *Ctx) Produce(dstStage int, v uint64) {
	ports, ok := c.w.edgeOut[dstStage]
	if !ok {
		panic(fmt.Sprintf("core: Produce(%d) from stage %d: no such edge", dstStage, c.w.stage))
	}
	ports[c.w.routeFor(dstStage, c.iter)].Produce(Entry{Kind: entData, MTX: c.iter, Val: v})
}

// ProduceData enqueues bulk application data (e.g. an input block) with a
// modelled wire size of bytes.
func (c *Ctx) ProduceData(dstStage int, payload any, bytes int) {
	ports, ok := c.w.edgeOut[dstStage]
	if !ok {
		panic(fmt.Sprintf("core: ProduceData(%d) from stage %d: no such edge", dstStage, c.w.stage))
	}
	ports[c.w.routeFor(dstStage, c.iter)].Produce(
		Entry{Kind: entData, MTX: c.iter, Payload: payload, Bytes: bytes})
}

// Consume dequeues the next word produced for this subTX by stage
// fromStage. All of the producing subTX's data is available once this subTX
// starts; consuming more than was produced is a protocol violation.
func (c *Ctx) Consume(fromStage int) uint64 {
	return c.take(fromStage).Val
}

// ConsumeData dequeues the next bulk datum produced for this subTX.
func (c *Ctx) ConsumeData(fromStage int) any {
	return c.take(fromStage).Payload
}

func (c *Ctx) take(fromStage int) Entry {
	var q inboxQ
	if fromStage >= 0 && fromStage < len(c.w.inbox) {
		q = c.w.inbox[fromStage]
	}
	if q.pos == len(q.data) {
		panic(fmt.Sprintf("core: stage %d consumed more than stage %d produced in MTX %d",
			c.w.stage, fromStage, c.iter))
	}
	c.w.inbox[fromStage].pos++
	return q.data[q.pos]
}

// SyncSend forwards a synchronized (non-speculated) cross-iteration value to
// the worker executing the next iteration, flushing immediately: this is
// the cyclic TLS/DOACROSS communication whose latency sits on the critical
// path.
func (c *Ctx) SyncSend(v uint64) {
	if c.w.syncOut == nil {
		panic("core: SyncSend without a sync ring (Plan.Sync)")
	}
	c.w.syncOut.Produce(Entry{Kind: entData, MTX: c.iter, Val: v})
	c.w.syncOut.Flush()
}

// SyncRecv blocks until the previous iteration's SyncSend value arrives.
func (c *Ctx) SyncRecv() uint64 {
	if c.w.syncIn == nil {
		panic("core: SyncRecv without a sync ring (Plan.Sync)")
	}
	// About to block mid-iteration: anything this worker has batched for
	// the try-commit/commit units must go out first, or a misspeculation
	// upstream of the ring could never be detected.
	c.w.flushMarkers()
	for {
		e := c.w.consumeNext(c.w.syncIn)
		if e.Kind == entData {
			return e.Val
		}
	}
}

// SyncSendVec forwards a vector of synchronized values to the next
// iteration in one flush — how TLS forwards a whole synchronized structure
// (e.g. a histogram) worker-to-worker.
func (c *Ctx) SyncSendVec(vals []uint64) {
	if c.w.syncOut == nil {
		panic("core: SyncSendVec without a sync ring (Plan.Sync)")
	}
	for _, v := range vals {
		c.w.syncOut.Produce(Entry{Kind: entData, MTX: c.iter, Val: v})
	}
	c.w.syncOut.Flush()
}

// SyncRecvVec receives n synchronized values from the previous iteration.
func (c *Ctx) SyncRecvVec(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = c.SyncRecv()
	}
	return out
}

// SyncSendFloat and SyncRecvFloat are float64 variants.
func (c *Ctx) SyncSendFloat(v float64) { c.SyncSend(bitsOf(v)) }

// SyncRecvFloat receives a synchronized float64.
func (c *Ctx) SyncRecvFloat() float64 { return floatOf(c.SyncRecv()) }

// Misspec declares that this MTX misspeculated (mtx_misspec): the stage body
// is abandoned, the misspeculation propagates to the commit unit, and
// recovery will re-execute the iteration sequentially.
func (c *Ctx) Misspec() {
	panic(misspecSignal{})
}

// Alloc allocates n bytes from this worker's own UVA region. Allocations
// are speculative: they are discarded on recovery.
func (c *Ctx) Alloc(n int64) uva.Addr { return c.w.arena.Alloc(n) }

// AllocWords allocates n words from this worker's region.
func (c *Ctx) AllocWords(n int) uva.Addr { return c.w.arena.AllocWords(n) }

// Free releases an allocation made by this worker.
func (c *Ctx) Free(addr uva.Addr) { c.w.arena.Free(addr) }
