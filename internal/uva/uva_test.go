package uva

import (
	"testing"
	"testing/quick"
)

func TestOwnerEncoding(t *testing.T) {
	for _, owner := range []int{0, 1, 2, 31, 128, 1000} {
		base := Base(owner)
		if base.Owner() != owner {
			t.Errorf("Base(%d).Owner() = %d", owner, base.Owner())
		}
		last := Addr(uint64(Limit(owner)) - WordSize)
		if last.Owner() != owner {
			t.Errorf("last addr of region %d decodes owner %d", owner, last.Owner())
		}
	}
}

func TestBaseSkipsNullPage(t *testing.T) {
	if Base(0) != PageSize {
		t.Fatalf("Base(0) = %#x, want first page skipped", uint64(Base(0)))
	}
}

func TestAddrGeometry(t *testing.T) {
	a := Addr(3*PageSize + 24)
	if a.Page() != 3 {
		t.Errorf("Page() = %d, want 3", a.Page())
	}
	if a.PageOffset() != 24 {
		t.Errorf("PageOffset() = %d, want 24", a.PageOffset())
	}
	if a.WordIndex() != 3 {
		t.Errorf("WordIndex() = %d, want 3", a.WordIndex())
	}
	if !a.Aligned() || Addr(uint64(a)+1).Aligned() {
		t.Error("alignment check wrong")
	}
	if PageAddr(a.Page()) != Addr(3*PageSize) {
		t.Error("PageAddr roundtrip failed")
	}
}

func TestArenaAllocAligned(t *testing.T) {
	a := NewArena(2)
	for _, size := range []int64{1, 7, 8, 9, 4096, 3} {
		addr := a.Alloc(size)
		if !addr.Aligned() {
			t.Errorf("Alloc(%d) = %v not aligned", size, addr)
		}
		if addr.Owner() != 2 {
			t.Errorf("Alloc(%d) owner = %d, want 2", size, addr.Owner())
		}
	}
}

func TestArenaAllocationsDisjoint(t *testing.T) {
	a := NewArena(0)
	type span struct{ lo, hi uint64 }
	var spans []span
	for i := int64(1); i < 40; i++ {
		addr := a.Alloc(i * 3)
		lo, hi := uint64(addr), uint64(addr)+uint64(roundUp(i*3))
		for _, s := range spans {
			if lo < s.hi && s.lo < hi {
				t.Fatalf("allocation [%#x,%#x) overlaps [%#x,%#x)", lo, hi, s.lo, s.hi)
			}
		}
		spans = append(spans, span{lo, hi})
	}
}

func TestArenaFreeReuses(t *testing.T) {
	a := NewArena(1)
	x := a.Alloc(64)
	a.Free(x)
	y := a.Alloc(64)
	if x != y {
		t.Fatalf("freed block not reused: %v then %v", x, y)
	}
}

func TestArenaDoubleFreePanics(t *testing.T) {
	a := NewArena(0)
	x := a.Alloc(8)
	a.Free(x)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(x)
}

func TestAllocWords(t *testing.T) {
	a := NewArena(0)
	addr := a.AllocWords(16)
	if next := a.Alloc(8); next != addr+128 {
		t.Fatalf("AllocWords(16) at %v, next allocation at %v; want 128 bytes apart", addr, next)
	}
	a.Free(addr)
}

// Property: any interleaving of allocs and frees keeps live allocations
// disjoint and owner-tagged.
func TestArenaProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		a := NewArena(5)
		var liveAddrs []Addr
		for _, op := range ops {
			if op%3 == 0 && len(liveAddrs) > 0 {
				a.Free(liveAddrs[0])
				liveAddrs = liveAddrs[1:]
				continue
			}
			size := int64(op%200) + 1
			addr := a.Alloc(size)
			if addr.Owner() != 5 || !addr.Aligned() {
				return false
			}
			liveAddrs = append(liveAddrs, addr)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBadOwnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Base(-1)
}

func TestArenaExhaustionPanics(t *testing.T) {
	a := NewArena(0)
	defer func() {
		if recover() == nil {
			t.Fatal("region exhaustion did not panic")
		}
	}()
	// A single region is 1 TiB; two allocations of 600 GiB exhaust it.
	a.Alloc(600 << 30)
	a.Alloc(600 << 30)
}

func TestAllocZeroPanics(t *testing.T) {
	a := NewArena(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(0) did not panic")
		}
	}()
	a.Alloc(0)
}
