package mem

import (
	"slices"
	"testing"

	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// versionedFault is a Copy-On-Access stand-in: page id reads id*1000 +
// version in word 0, so a test can tell a kept page from a refetched one by
// bumping version between fetches.
type versionedFault struct {
	version uint64
	calls   int
}

func (f *versionedFault) fetch(id uva.PageID) *Page {
	f.calls++
	pg := new(Page)
	pg.Words[0] = uint64(id)*1000 + f.version
	return pg
}

// TestRearmKeepsCleanPages: Rearm drops the pages the image stored to (a
// word store, a bulk store, a full-page store that skipped the fault) and the
// pages listed stale, keeps every other resident page — fetched or installed
// — without refetching it, recycles exactly the dropped frames the image
// owned (a fetched frame is lent, so a listed page drops without being
// recycled), and leaves Resident and the resident gauge counting what is
// left.
func TestRearmKeepsCleanPages(t *testing.T) {
	f := &versionedFault{}
	im := NewImage(f.fetch)
	im.ReleaseOnReset(true)
	m := trace.NewMetrics()
	im.Instrument(m)

	base := uva.Base(1)
	at := func(p int) uva.Addr { return base + uva.Addr(p)*uva.PageSize }
	for p := 0; p < 4; p++ {
		im.Load(at(p)) // pages 0-3 fetched clean
	}
	im.InstallPage(at(4).Page(), nil)                 // page 4 installed clean
	im.Store(at(1)+8, 7)                              // page 1: word store
	im.StoreBytes(at(2)+8, []byte{1, 2, 3})           // page 2: bulk store
	im.StoreBytes(at(5), make([]byte, uva.PageSize))  // page 5: full-page store, no fault
	stale := []uva.PageID{at(3).Page(), at(9).Page()} // page 9 was never resident
	if im.Resident() != 6 || f.calls != 4 {
		t.Fatalf("before Rearm: %d resident, %d fetches; want 6 and 4", im.Resident(), f.calls)
	}

	im.Rearm(stale)
	for p, want := range map[int]bool{0: true, 1: false, 2: false, 3: false, 4: true, 5: false, 9: false} {
		if im.Has(at(p).Page()) != want {
			t.Errorf("page %d resident = %v after Rearm, want %v", p, !want, want)
		}
	}
	if im.Resident() != 2 {
		t.Errorf("Resident = %d after Rearm, want 2", im.Resident())
	}
	if g := m.Gauge("mem.resident.pages").Value(); g != 2 {
		t.Errorf("mem.resident.pages = %d after Rearm, want 2", g)
	}
	if r := m.Counter("mem.pages.recycled").Value(); r != 3 {
		t.Errorf("mem.pages.recycled = %d after Rearm, want 3 (pages 1, 2, 5; page 3 was lent)", r)
	}

	f.version = 1
	if v := im.Load(at(0)); v != uint64(at(0).Page())*1000 || f.calls != 4 {
		t.Errorf("kept page 0 reads %d after %d fetches; want the original copy, no fetch", v, f.calls)
	}
	for _, p := range []int{1, 2, 3} {
		if v := im.Load(at(p)); v != uint64(at(p).Page())*1000+1 {
			t.Errorf("dropped page %d reads %d, want a fresh fetch", p, v)
		}
	}
	if f.calls != 7 {
		t.Errorf("%d fetches after reloading three dropped pages, want 7", f.calls)
	}
	if v := im.Load(at(1) + 8); v != 0 {
		t.Errorf("speculative store survived Rearm: %d", v)
	}
}

// TestLoadAfterRearmFaults: the last-slot cache must not serve a page Rearm
// dropped — the load right after it faults, for a dirty page and for a
// listed one.
func TestLoadAfterRearmFaults(t *testing.T) {
	f := &versionedFault{}
	im := NewImage(f.fetch)
	a := uva.Base(2)
	im.Store(a, 99) // the cached slot is the dirty page
	im.Rearm(nil)
	if v := im.Load(a); v != uint64(a.Page())*1000 || f.calls != 2 {
		t.Fatalf("load after Rearm read %d after %d fetches; want a refetch", v, f.calls)
	}
	im.Rearm([]uva.PageID{a.Page()}) // now clean, but listed
	f.version = 5
	if v := im.Load(a); v != uint64(a.Page())*1000+5 || f.calls != 3 {
		t.Fatalf("load after a listed Rearm read %d after %d fetches; want a refetch", v, f.calls)
	}
}

// TestStoreAfterSnapshotUnshares: AppendUnshared on a snapshotted image is
// what was written or first touched since the snapshot — a word store, a
// bulk store, a load of a page not resident before — and a snapshot clears
// the list.
func TestStoreAfterSnapshotUnshares(t *testing.T) {
	im := NewImage(nil)
	base := uva.Base(3)
	at := func(p int) uva.Addr { return base + uva.Addr(p)*uva.PageSize }
	for p := 0; p < 4; p++ {
		im.Store(at(p), uint64(p))
	}
	if got := im.AppendUnshared(nil); len(got) != 4 {
		t.Fatalf("before any snapshot: %d unshared pages, want 4", len(got))
	}
	im.Snapshot()
	if got := im.AppendUnshared(nil); len(got) != 0 {
		t.Fatalf("right after Snapshot: unshared %v, want none", got)
	}
	im.Store(at(1), 10)
	im.StoreBytes(at(2)+8, []byte{1})
	im.Load(at(6))
	got := im.AppendUnshared(nil)
	slices.Sort(got)
	if want := []uva.PageID{at(1).Page(), at(2).Page(), at(6).Page()}; !slices.Equal(got, want) {
		t.Fatalf("unshared after writes = %v, want %v", got, want)
	}
	im.Snapshot()
	if got := im.AppendUnshared(nil); len(got) != 0 {
		t.Fatalf("after a second Snapshot: unshared %v, want none", got)
	}
}
