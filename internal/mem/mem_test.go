package mem

import (
	"testing"
	"testing/quick"

	"dsmtx/internal/uva"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	im := NewImage(nil)
	addr := uva.Base(1)
	im.Store(addr, 42)
	if got := im.Load(addr); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	im := NewImage(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access did not panic")
		}
	}()
	im.Load(uva.Base(0) + 3)
}

func TestFaultHandlerInvokedOncePerPage(t *testing.T) {
	faults := 0
	im := NewImage(func(id uva.PageID) *Page {
		faults++
		pg := new(Page)
		pg.Words[0] = uint64(id)
		return pg
	})
	base := uva.Base(2)
	if im.Load(base) != uint64(base.Page()) {
		t.Fatal("faulted page content wrong")
	}
	im.Load(base + 8)
	im.Store(base+16, 1)
	if faults != 1 {
		t.Fatalf("faults = %d, want 1 (page granularity)", faults)
	}
	// A different page faults separately.
	im.Load(base + uva.PageSize)
	if faults != 2 {
		t.Fatalf("faults = %d, want 2", faults)
	}
}

func TestNilFaultHandlerZeroFills(t *testing.T) {
	im := NewImage(nil)
	if v := im.Load(uva.Base(7)); v != 0 {
		t.Fatalf("zero page load = %d", v)
	}
}

func TestResetDropsAllPagesAndRefaults(t *testing.T) {
	faults := 0
	im := NewImage(func(uva.PageID) *Page { faults++; return nil })
	addr := uva.Base(0)
	im.Store(addr, 99)
	im.Reset()
	if im.Resident() != 0 {
		t.Fatalf("Resident = %d after Reset", im.Resident())
	}
	if v := im.Load(addr); v != 0 {
		t.Fatalf("speculative store survived Reset: %d", v)
	}
	if faults != 2 {
		t.Fatalf("faults = %d, want 2 (refault after reset)", faults)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	commit := NewImage(nil)
	addr := uva.Base(0)
	commit.Store(addr, 10)
	snap := commit.Snapshot()

	// Later commits must not leak into the snapshot.
	commit.Store(addr, 20)
	if got := snap.Load(addr); got != 10 {
		t.Fatalf("snapshot sees %d, want 10", got)
	}
	if got := commit.Load(addr); got != 20 {
		t.Fatalf("commit image sees %d, want 20", got)
	}
}

func TestSnapshotDoesNotFaultMisses(t *testing.T) {
	commit := NewImage(nil)
	commit.Store(uva.Base(0), 1)
	snap := commit.Snapshot()
	// A page absent at snapshot time reads as zero.
	if v := snap.Load(uva.Base(3)); v != 0 {
		t.Fatalf("missing page read %d", v)
	}
}

func TestSnapshotOfSnapshotChain(t *testing.T) {
	im := NewImage(nil)
	addr := uva.Base(0)
	im.Store(addr, 1)
	s1 := im.Snapshot()
	im.Store(addr, 2)
	s2 := im.Snapshot()
	im.Store(addr, 3)
	if s1.Load(addr) != 1 || s2.Load(addr) != 2 || im.Load(addr) != 3 {
		t.Fatalf("chain = %d,%d,%d; want 1,2,3", s1.Load(addr), s2.Load(addr), im.Load(addr))
	}
}

func TestInstallPage(t *testing.T) {
	im := NewImage(func(uva.PageID) *Page {
		t.Fatal("fault handler must not run for installed page")
		return nil
	})
	pg := new(Page)
	pg.Words[5] = 77
	addr := uva.Base(1)
	im.InstallPage(addr.Page(), pg)
	if got := im.Load(addr + 5*8); got != 77 {
		t.Fatalf("installed page word = %d, want 77", got)
	}
	im.InstallPage(addr.Page()+1, nil) // nil installs a zero page
	if got := im.Load(addr + uva.PageSize); got != 0 {
		t.Fatalf("nil install word = %d, want 0", got)
	}
}

// TestSharePageAliases: SharePage lends the slot's own frame, faulting it in
// first, and a later store through the source image copies the page, so the
// lent frame keeps the old word.
func TestSharePageAliases(t *testing.T) {
	im := NewImage(nil)
	addr := uva.Base(0)
	im.Store(addr, 5)
	pg := im.SharePage(addr.Page())
	if s := im.slot(addr.Page()); s.pg != pg || !s.shared {
		t.Fatal("SharePage did not lend the slot's frame shared")
	}
	im.Store(addr, 6)
	if pg.Words[addr.WordIndex()] != 5 || im.Load(addr) != 6 {
		t.Fatalf("after a store through the source: lent word %d, source %d; want 5 and 6",
			pg.Words[addr.WordIndex()], im.Load(addr))
	}
	if zero := im.SharePage(addr.Page() + 1); zero.Words != (Page{}).Words || im.Resident() != 2 {
		t.Fatal("SharePage of a protected page did not fault in a zero page")
	}
}

func TestCopyPageIndependent(t *testing.T) {
	im := NewImage(nil)
	addr := uva.Base(0)
	im.Store(addr, 5)
	cp := im.CopyPage(addr.Page())
	im.Store(addr, 6)
	if cp.Words[addr.WordIndex()] != 5 {
		t.Fatal("CopyPage aliased live page")
	}
}

func TestCounters(t *testing.T) {
	im := NewImage(nil)
	addr := uva.Base(0)
	im.Store(addr, 1)
	im.Load(addr)
	im.Load(addr)
	if im.Faults != 1 {
		t.Fatalf("faults = %d, want 1", im.Faults)
	}
}

// Property: an Image behaves like a map[addr]word for arbitrary word-aligned
// store/load sequences, including across a Snapshot boundary (snapshot must
// keep the old values, live image the new).
func TestImageVsMapProperty(t *testing.T) {
	f := func(writes []struct {
		Slot uint16
		Val  uint64
	}) bool {
		im := NewImage(nil)
		model := map[uva.Addr]uint64{}
		base := uva.Base(0)
		half := len(writes) / 2
		for _, w := range writes[:half] {
			addr := base + uva.Addr(w.Slot)*8
			im.Store(addr, w.Val)
			model[addr] = w.Val
		}
		snapModel := map[uva.Addr]uint64{}
		for k, v := range model {
			snapModel[k] = v
		}
		snap := im.Snapshot()
		for _, w := range writes[half:] {
			addr := base + uva.Addr(w.Slot)*8
			im.Store(addr, w.Val)
			model[addr] = w.Val
		}
		for addr, want := range model {
			if im.Load(addr) != want {
				return false
			}
		}
		for addr, want := range snapModel {
			if snap.Load(addr) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
