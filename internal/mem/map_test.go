package mem

import (
	"testing"

	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// mapFrames returns n frames, frame i holding i*1000+w in word w, and a copy
// of them to compare against.
func mapFrames(n int) (frames []*Page, want []Page) {
	for i := range n {
		pg := new(Page)
		for w := range pg.Words {
			pg.Words[w] = uint64(i*1000 + w)
		}
		frames = append(frames, pg)
		want = append(want, *pg)
	}
	return frames, want
}

// checkFrames fails t if any frame differs from its copy in want.
func checkFrames(t *testing.T, frames []*Page, want []Page) {
	t.Helper()
	for i, pg := range frames {
		if *pg != want[i] {
			t.Errorf("frame %d changed under the image", i)
		}
	}
}

// TestMapPagesCopyOnWrite: a mapped page reads its frame's words, and a word
// store, a partial bulk store and a full-page bulk store each give the image
// its own page and leave the frame unchanged.
func TestMapPagesCopyOnWrite(t *testing.T) {
	frames, want := mapFrames(4)
	im := NewImage(nil)
	base := uva.Base(1)
	at := func(p int) uva.Addr { return base + uva.Addr(p)*uva.PageSize }
	im.MapPages(base, frames)
	if im.Resident() != 4 {
		t.Fatalf("Resident = %d after mapping 4 frames", im.Resident())
	}
	for p := range 4 {
		if got := im.Load(at(p) + 16); got != uint64(p*1000+2) {
			t.Fatalf("page %d word 2 = %d, want %d", p, got, p*1000+2)
		}
	}
	im.Store(at(0)+8, 7)
	im.StoreBytes(at(1)+8, []byte{1, 2, 3})
	full := make([]byte, uva.PageSize)
	full[0] = 9
	im.StoreBytes(at(2), full)
	checkFrames(t, frames, want)
	if got := im.Load(at(0) + 8); got != 7 {
		t.Errorf("word store read back %d", got)
	}
	if got := im.LoadBytes(at(1)+8, 3); got[0] != 1 || got[2] != 3 {
		t.Errorf("partial bulk store read back %v", got)
	}
	if got := im.Load(at(1) + 16); got != 1002 {
		t.Errorf("partial bulk store lost the page's other words: %d", got)
	}
	if got := im.Load(at(2)); got != 9 {
		t.Errorf("full-page store read back %d", got)
	}
	if got := im.Load(at(3)); got != 3000 {
		t.Errorf("untouched mapped page reads %d", got)
	}
}

// TestMapPagesNeverPooled: Reset and Rearm on a recycling image return only
// the image's own copies to the frame pool, never a mapped frame, and a
// Snapshot of the image keeps aliasing the frame copy-on-write.
func TestMapPagesNeverPooled(t *testing.T) {
	frames, want := mapFrames(3)
	base := uva.Base(1)
	at := func(p int) uva.Addr { return base + uva.Addr(p)*uva.PageSize }
	isFrame := func(pg *Page) bool {
		for _, f := range frames {
			if pg == f {
				return true
			}
		}
		return false
	}
	checkPool := func(when string) {
		t.Helper()
		for range 8 {
			if pg := getPageRaw(); isFrame(pg) {
				t.Fatalf("%s: a mapped frame came out of the pool", when)
			}
		}
	}

	im := NewImage(nil)
	im.ReleaseOnReset(true)
	m := trace.NewMetrics()
	im.Instrument(m)
	recycled := m.Counter("mem.pages.recycled")

	im.MapPages(base, frames)
	im.Load(at(5)) // one zero page of the image's own
	im.Reset()
	if got := recycled.Value(); got != 1 {
		t.Errorf("Reset recycled %d frames, want 1 (the image's own page)", got)
	}
	checkPool("Reset")

	im.MapPages(base, frames)
	im.Store(at(0), 1) // page 0 becomes the image's dirty copy
	im.Rearm([]uva.PageID{at(1).Page()})
	if got := recycled.Value(); got != 2 {
		t.Errorf("Rearm recycled %d frames in all, want 2 (one more: the copy of page 0)", got)
	}
	if im.Has(at(0).Page()) || im.Has(at(1).Page()) || !im.Has(at(2).Page()) {
		t.Error("Rearm kept the wrong pages: want page 2 mapped, pages 0 and 1 dropped")
	}
	checkPool("Rearm")
	checkFrames(t, frames, want)

	src := NewImage(nil)
	src.MapPages(base, frames)
	snap := src.Snapshot()
	for p, view := range []*Image{src, snap} {
		if s := view.slot(at(p).Page()); s.pg != frames[p] || !s.shared {
			t.Errorf("view %d does not alias frame %d copy-on-write", p, p)
		}
		view.Store(at(p), 42)
		if got := view.Load(at(p)); got != 42 {
			t.Errorf("view %d reads %d after its store", p, got)
		}
	}
	checkFrames(t, frames, want)
	if got := snap.Load(at(0)); got != 0 {
		t.Errorf("snapshot sees the source's later store: %d", got)
	}
}

// TestMapPagesUnalignedPanics: frames map only at a page boundary.
func TestMapPagesUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MapPages at an unaligned address did not panic")
		}
	}()
	NewImage(nil).MapPages(uva.Base(1)+8, []*Page{new(Page)})
}

// TestBorrowedFrameIsCopyOnWrite: a frame the fault handler returns, or
// InstallPage is given, is lent exactly as a mapped one: the image reads it
// in place, a word store, a partial bulk store and a full-page bulk store
// each give the image its own page and leave the frame byte-identical, and
// neither Rearm nor Reset counts it in mem.pages.recycled or pools it.
func TestBorrowedFrameIsCopyOnWrite(t *testing.T) {
	frames, want := mapFrames(5)
	base := uva.Base(1)
	at := func(p int) uva.Addr { return base + uva.Addr(p)*uva.PageSize }
	im := NewImage(func(id uva.PageID) *Page { return frames[id-base.Page()] })
	im.ReleaseOnReset(true)
	m := trace.NewMetrics()
	im.Instrument(m)
	recycled := m.Counter("mem.pages.recycled")

	for p := range 4 {
		if got := im.Load(at(p) + 16); got != uint64(p*1000+2) {
			t.Fatalf("page %d word 2 = %d, want %d", p, got, p*1000+2)
		}
	}
	im.InstallPage(at(4).Page(), frames[4])
	for p := range 5 {
		if s := im.slot(at(p).Page()); s.pg != frames[p] || !s.shared {
			t.Fatalf("page %d does not read its lent frame in place", p)
		}
	}
	im.Store(at(0)+8, 7)
	im.StoreBytes(at(1)+8, []byte{1, 2, 3})
	im.StoreBytes(at(2), make([]byte, uva.PageSize))
	checkFrames(t, frames, want)
	for p := range 3 {
		if im.slot(at(p).Page()).pg == frames[p] {
			t.Errorf("page %d still maps its lent frame after a store", p)
		}
	}
	if im.Load(at(0)+8) != 7 || im.Load(at(0)+16) != 2 || im.Load(at(1)+16) != 1002 || im.Load(at(2)+16) != 0 {
		t.Error("the stored pages lost a store or the lent frame's other words")
	}

	im.Rearm([]uva.PageID{at(3).Page()})
	if got := recycled.Value(); got != 3 {
		t.Errorf("Rearm recycled %d frames, want 3 (the copies of pages 0-2)", got)
	}
	im.Load(at(3))
	im.Reset()
	if got := recycled.Value(); got != 3 {
		t.Errorf("Reset recycled %d frames in all, want 3 (page 3 and 4 were lent)", got)
	}
	for range 8 {
		for _, f := range frames {
			if getPageRaw() == f {
				t.Fatal("a lent frame came out of the pool")
			}
		}
	}
	checkFrames(t, frames, want)
}
