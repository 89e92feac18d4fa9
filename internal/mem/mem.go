// Package mem implements the versioned page memory under DSMTX.
//
// Each process in the system — every worker, the try-commit unit, the commit
// unit — holds a private Image: a software page table over the unified
// virtual address space. Pages a process has never touched are "protected";
// the first access faults and invokes the image's fault handler, which in
// DSMTX performs Copy-On-Access — fetching the whole 4 KiB page from the
// commit unit's memory (§3.1, §4.2). Inside one process the fetch lends the
// snapshot's own frame (SharePage) rather than a clone: the image maps a
// fetched frame copy-on-write, so a page it only reads exists once per
// process and the first store copies it. Rearm drops the pages the image
// wrote and the ones its caller names stale: misspeculation recovery's
// re-arm (§4.3). Reset drops every page, recycling an image after a run.
//
// Go has no user-level memory protection, so the page-table state machine
// is explicit; the protocol it triggers (fault → page request → page reply →
// install) matches the paper's, and the transfer costs are charged by the
// runtime's fault handler.
//
// Host-side layout: the page table is two-level — a map of 512-page chunks
// (2 MiB of address space each) holding dense slot arrays — plus a
// per-image last-slot cache, so the common case of touching the same page
// (or the same 2 MiB region) repeatedly does no map lookup at all. The
// frames an image copied for itself are recycled through a free list
// (sync.Pool) on images that opt in with ReleaseOnReset; none of this is
// visible in simulated time.
package mem

import (
	"fmt"
	"sync"

	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// Page is 4 KiB of memory stored as 512 words; DSMTX operates on memory at
// word granularity (§4.2), so word arrays lose nothing.
type Page struct {
	Words [uva.PageWords]uint64
}

// pagePool recycles Page frames across images and runs. Frames enter the
// pool only from images that opted in via ReleaseOnReset (worker and
// try-commit images), and only unshared ones: the clones a store made and
// the zero pages the image filled itself. Lent and mapped frames stay
// shared, so a pooled frame is never still referenced. The pool is also
// shared by simulations running concurrently on the host (the experiment
// scheduler's fan-out): that is safe because sync.Pool is goroutine-safe
// and every taker fully initializes the frame before use — getPageRaw
// callers overwrite every word, getPageZero clears — so no kernel can
// observe another's contents.
var pagePool sync.Pool

// getPageRaw returns a page frame with undefined contents; callers must
// overwrite every word (full-page install, whole-page clone).
func getPageRaw() *Page {
	if v := pagePool.Get(); v != nil {
		return v.(*Page)
	}
	return new(Page)
}

// getPageZero returns a zeroed page frame.
func getPageZero() *Page {
	if v := pagePool.Get(); v != nil {
		pg := v.(*Page)
		*pg = Page{}
		return pg
	}
	return new(Page)
}

// clonePage returns a pooled copy of src.
func clonePage(src *Page) *Page {
	dst := getPageRaw()
	*dst = *src
	return dst
}

// FaultFunc resolves a page miss, returning the frame to install
// (Copy-On-Access from the commit unit), or nil to install a private zero
// page (fresh thread-local allocation). A returned frame is lent: the image
// maps it copy-on-write, as MapPages does, so it reads the frame in place,
// its first store copies it, and Reset and Rearm never recycle it. It may
// block the calling process and charge virtual time.
type FaultFunc func(id uva.PageID) *Page

// Page-table geometry: pageID's low chunkShift bits index a dense slot
// array; the rest select the chunk. 512 slots of 16 bytes keep a chunk at
// 8 KiB — one chunk typically covers a workload's whole working set for one
// owner region.
const (
	chunkShift = 9
	chunkPages = 1 << chunkShift
	chunkMask  = chunkPages - 1
)

// pageSlot is one page-table entry: the resident page (nil = protected),
// whether a snapshot still aliases it (copy on write), and whether this image
// stored to it since it was installed (Rearm drops it).
type pageSlot struct {
	pg     *Page
	shared bool
	dirty  bool
}

type pageChunk struct {
	slots [chunkPages]pageSlot
}

// noPage is the last-slot cache's "empty" sentinel (no valid page ID — it
// would imply an address with all bits set).
const noPage = ^uva.PageID(0)

// Image is one process's view of the unified address space.
type Image struct {
	chunks  map[uint64]*pageChunk
	fault   FaultFunc
	hintEnd uva.PageID // one past the last page of an in-flight bulk access

	// Hot-path caches: the last slot touched (same-page accesses skip all
	// lookup) and the last chunk touched (same-region accesses skip the
	// chunk map).
	lastID    uva.PageID
	lastSlot  *pageSlot
	lastKey   uint64
	lastChunk *pageChunk

	resident int
	release  bool // return exclusively-owned pages to the pool on Reset

	// Faults counts page faults, for tests and instrumentation.
	Faults uint64

	// Metric handles, resolved once by Instrument; nil on uninstrumented
	// images (every use is a nil-safe single branch). They sit on the fault
	// and reset paths only — the resident Load/Store fast path is untouched.
	cFaults   *trace.Counter
	cRecycled *trace.Counter
	cRearmed  *trace.Counter
	cKept     *trace.Counter
	gResident *trace.Gauge
}

// NewImage returns an empty image whose misses are resolved by fault
// (nil means "install zero pages" — the commit unit's own image works this
// way, since it holds the authoritative state).
func NewImage(fault FaultFunc) *Image {
	return &Image{
		chunks: make(map[uint64]*pageChunk),
		fault:  fault,
		lastID: noPage,
	}
}

// Instrument attaches shared metric handles: page faults bump
// "mem.pages.faulted", frames returned to the pool bump "mem.pages.recycled",
// pages a Rearm drops and keeps bump "mem.pages.rearmed" and "mem.pages.kept",
// and the cluster-wide resident-page level drives the "mem.resident.pages"
// gauge (its Max is the high-water mark). A nil registry is a no-op.
func (im *Image) Instrument(m *trace.Metrics) {
	if m == nil {
		return
	}
	im.cFaults = m.Counter("mem.pages.faulted")
	im.cRecycled = m.Counter("mem.pages.recycled")
	im.cRearmed = m.Counter("mem.pages.rearmed")
	im.cKept = m.Counter("mem.pages.kept")
	im.gResident = m.Gauge("mem.resident.pages")
}

// ReleaseOnReset opts this image into page recycling: Reset and Rearm (and
// nothing else) return its unshared frames — the copies its stores made and
// the zero pages it filled — to the shared frame pool. Only safe when no
// pointer to an unshared frame outlives the image's speculative state — true
// for worker and try-commit images, which serve no pages and hold their
// Copy-On-Access frames shared; never enabled for the commit unit's
// authoritative image or for user-built images.
func (im *Image) ReleaseOnReset(on bool) { im.release = on }

// AccessHint reports the page just past the current bulk access — fault
// handlers use it to size read-ahead exactly; 0 when no bulk access is in
// flight.
func (im *Image) AccessHint() uva.PageID { return im.hintEnd }

// Resident reports how many pages the image currently holds.
func (im *Image) Resident() int { return im.resident }

// Has reports whether a page is resident (unprotected).
func (im *Image) Has(id uva.PageID) bool {
	if ch, ok := im.chunks[uint64(id)>>chunkShift]; ok {
		return ch.slots[uint64(id)&chunkMask].pg != nil
	}
	return false
}

// slot returns the page-table entry for id, allocating its chunk if needed,
// and primes the last-slot cache.
func (im *Image) slot(id uva.PageID) *pageSlot {
	key := uint64(id) >> chunkShift
	ch := im.lastChunk
	if ch == nil || key != im.lastKey {
		var ok bool
		ch, ok = im.chunks[key]
		if !ok {
			ch = new(pageChunk)
			im.chunks[key] = ch
		}
		im.lastKey, im.lastChunk = key, ch
	}
	s := &ch.slots[uint64(id)&chunkMask]
	im.lastID, im.lastSlot = id, s
	return s
}

// fill resolves a protected slot through the fault handler. The handler may
// block and recursively install read-ahead pages into this image; s stays
// valid (slots never move) and the slot's final contents match the
// handler's answer for id.
func (im *Image) fill(id uva.PageID, s *pageSlot) {
	im.Faults++
	im.cFaults.Inc()
	var pg *Page
	if im.fault != nil {
		pg = im.fault(id)
	}
	im.install(s, pg)
}

// install makes s resident with pg, lent and mapped copy-on-write, or with
// a private zero page when pg is nil.
func (im *Image) install(s *pageSlot, pg *Page) {
	lent := pg != nil
	if !lent {
		pg = getPageZero()
	}
	if s.pg == nil {
		im.resident++
		im.gResident.Add(1)
	}
	*s = pageSlot{pg: pg, shared: lent}
}

// faultIn returns id's slot with its page resident.
func (im *Image) faultIn(id uva.PageID) *pageSlot {
	s := im.slot(id)
	if s.pg == nil {
		im.fill(id, s)
	}
	return s
}

func checkAligned(addr uva.Addr) {
	if !addr.Aligned() {
		panic(fmt.Sprintf("mem: unaligned word access at %v", addr))
	}
}

// Load reads the word at addr, faulting the page in if protected.
func (im *Image) Load(addr uva.Addr) uint64 {
	checkAligned(addr)
	id := addr.Page()
	s := im.lastSlot
	if s == nil || id != im.lastID {
		s = im.slot(id)
	}
	if s.pg == nil {
		im.fill(id, s)
	}
	return s.pg.Words[addr.WordIndex()]
}

// Store writes the word at addr, faulting the page in if protected. A page
// aliased by a snapshot is copied first (copy-on-write).
func (im *Image) Store(addr uva.Addr, v uint64) {
	checkAligned(addr)
	id := addr.Page()
	s := im.lastSlot
	if s == nil || id != im.lastID {
		s = im.slot(id)
	}
	if s.pg == nil {
		im.fill(id, s)
	}
	if s.shared {
		s.pg, s.shared = clonePage(s.pg), false
	}
	s.dirty = true
	s.pg.Words[addr.WordIndex()] = v
}

// InstallPage places a received page into the image, unprotecting it.
// Used by the COA client for the read-ahead pages of a page reply. Like a
// frame a FaultFunc returns, pg is lent and mapped copy-on-write; nil
// installs a private zero page.
func (im *Image) InstallPage(id uva.PageID, pg *Page) { im.install(im.slot(id), pg) }

// MapPages installs frames as the pages from addr (page-aligned) on, each
// shared copy-on-write as Snapshot aliases pages: the image reads
// the caller's frame, its first store to a page copies it, and Reset and
// Rearm never recycle it, so the frames stay unchanged and may back any
// number of images at once. Like a snapshot's pages, a mapped page is neither
// dirty nor unshared: map before the snapshot a recovery's stale scan
// starts from (Setup does).
func (im *Image) MapPages(addr uva.Addr, frames []*Page) {
	if addr.PageOffset() != 0 {
		panic(fmt.Sprintf("mem: MapPages at unaligned %v", addr))
	}
	for i, pg := range frames {
		im.install(im.slot(addr.Page()+uva.PageID(i)), pg)
	}
}

// SharePage lends the page's own frame, faulting it in if needed, and marks
// the slot shared, so a later store through this image copies the page
// first. The Copy-On-Access page server serves its snapshot this way; the
// receiving image maps the frame copy-on-write, so no one writes it in place.
func (im *Image) SharePage(id uva.PageID) *Page {
	s := im.faultIn(id)
	s.shared = true
	return s.pg
}

// CopyPage returns a private copy of a page from the shared frame pool,
// faulting it in if needed. The runtime lends frames instead (SharePage);
// this whole-page copy is what the benchmark's mem.copy_page_ns probe times.
func (im *Image) CopyPage(id uva.PageID) *Page { return clonePage(im.faultIn(id).pg) }

// Reset drops every resident page, re-arming protection over the whole
// space: the paper's recovery step "reinstate the access protection to the
// heap area, discarding the remaining speculative state". The runtime
// recovers with Rearm, and Resets an image only once its run has ended.
func (im *Image) Reset() {
	if im.release {
		recycled := 0
		for _, ch := range im.chunks {
			for i := range ch.slots {
				if s := &ch.slots[i]; s.pg != nil && !s.shared {
					pagePool.Put(s.pg)
					recycled++
				}
			}
		}
		im.cRecycled.Add(uint64(recycled))
	}
	im.gResident.Add(-int64(im.resident))
	im.chunks = make(map[uint64]*pageChunk)
	im.lastID = noPage
	im.lastSlot = nil
	im.lastKey = 0
	im.lastChunk = nil
	im.resident = 0
}

// Rearm re-arms protection over only what a recovery made stale: every page
// this image stored to since the page was installed (speculative state), and
// every page in stale (pages whose authoritative copy changed). Each other
// resident page is an unmodified page of the snapshot it was fetched from;
// leaving it out of stale is the caller's word that the new snapshot holds
// the same page, so it stays. Frames are recycled as on Reset.
func (im *Image) Rearm(stale []uva.PageID) {
	dropped, recycled := 0, 0
	drop := func(s *pageSlot) {
		if im.release && !s.shared {
			pagePool.Put(s.pg)
			recycled++
		}
		*s = pageSlot{}
		dropped++
	}
	for _, ch := range im.chunks {
		for i := range ch.slots {
			if s := &ch.slots[i]; s.pg != nil && s.dirty {
				drop(s)
			}
		}
	}
	for _, id := range stale {
		if ch, ok := im.chunks[uint64(id)>>chunkShift]; ok {
			if s := &ch.slots[uint64(id)&chunkMask]; s.pg != nil {
				drop(s)
			}
		}
	}
	// Chunks stay, so the last-slot caches stay valid: a dropped slot reads
	// as protected and the next access faults.
	im.resident -= dropped
	im.gResident.Add(-int64(dropped))
	im.cRecycled.Add(uint64(recycled))
	im.cRearmed.Add(uint64(dropped))
	im.cKept.Add(uint64(im.resident))
}

// AppendUnshared appends to dst every resident page no snapshot aliases:
// exactly the pages written, or first touched, since the last Snapshot,
// which marks every resident page shared — and a store copies a shared page
// before writing, clearing the mark.
func (im *Image) AppendUnshared(dst []uva.PageID) []uva.PageID {
	for key, ch := range im.chunks {
		base := key << chunkShift
		for i := range ch.slots {
			if s := &ch.slots[i]; s.pg != nil && !s.shared {
				dst = append(dst, uva.PageID(base|uint64(i)))
			}
		}
	}
	return dst
}

// Space is the word/byte access surface sequential workload code (Setup,
// Finalize, recovery re-execution) programs against. An *Image satisfies
// it; the interface is the seam where a reference space that shares no code
// with Image can plug in.
type Space interface {
	Load(addr uva.Addr) uint64
	Store(addr uva.Addr, v uint64)
	LoadBytes(addr uva.Addr, n int) []byte
	LoadBytesInto(dst []byte, addr uva.Addr)
	StoreBytes(addr uva.Addr, b []byte)
	MapPages(addr uva.Addr, frames []*Page)
}

var _ Space = (*Image)(nil)

// ForEachResident calls fn for every resident page. Iteration order is
// unspecified (it follows the chunk map); callers that need determinism must
// not depend on order. The page pointer is the live frame — do not retain it
// across mutations of the image.
func (im *Image) ForEachResident(fn func(uva.PageID, *Page)) {
	for key, ch := range im.chunks {
		base := key << chunkShift
		for i := range ch.slots {
			if pg := ch.slots[i].pg; pg != nil {
				fn(uva.PageID(base|uint64(i)), pg)
			}
		}
	}
}

// Snapshot returns a frozen copy-on-write view of the image as it is now.
// The snapshot has no fault handler: it answers only for pages resident at
// snapshot time (plus zero pages elsewhere). The commit unit takes one per
// parallel invocation — and a fresh one after recovery — for the page server
// to serve COA requests from, since committed state keeps advancing while
// workers must initialize from the invocation-entry state.
func (im *Image) Snapshot() *Image {
	snap := NewImage(nil)
	snap.resident = im.resident
	for key, ch := range im.chunks {
		for i := range ch.slots {
			if ch.slots[i].pg != nil {
				ch.slots[i].shared = true
			}
		}
		dup := *ch
		snap.chunks[key] = &dup
	}
	return snap
}
