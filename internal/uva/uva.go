// Package uva implements the Unified Virtual Address space of DSMTX (§3.3).
//
// Every thread in the system sees the same virtual addresses: a pointer
// produced by thread 1 is valid on thread 2 with no translation. The address
// space is statically partitioned into per-owner regions, with the owner
// encoded in the upper bits of the address, so any node can tell from an
// address alone which thread's region it lives in. Memory allocation is
// satisfied thread-locally from the owner's region (the system `malloc` and
// `free` are hooked in the paper; here workloads call Arena.Alloc/Free).
package uva

import "fmt"

// Addr is a unified virtual address. Word accesses must be 8-byte aligned.
type Addr uint64

// Address-space geometry. Each owner gets 2^OwnerShift bytes (1 TiB) of
// virtual space; pages are 4 KiB as on the paper's platform.
const (
	PageShift  = 12
	PageSize   = 1 << PageShift // 4096
	WordSize   = 8
	PageWords  = PageSize / WordSize
	OwnerShift = 40
	MaxOwners  = 1 << 20
)

// PageID identifies a 4 KiB page.
type PageID uint64

// Owner reports the thread whose region contains a.
func (a Addr) Owner() int { return int(a >> OwnerShift) }

// Page reports the page containing a.
func (a Addr) Page() PageID { return PageID(a >> PageShift) }

// PageOffset reports a's byte offset within its page.
func (a Addr) PageOffset() int { return int(a & (PageSize - 1)) }

// WordIndex reports a's word index within its page; a must be word-aligned.
func (a Addr) WordIndex() int { return int(a&(PageSize-1)) >> 3 }

// Aligned reports whether a is word-aligned.
func (a Addr) Aligned() bool { return a&(WordSize-1) == 0 }

// String renders the address with its owner for diagnostics.
func (a Addr) String() string {
	return fmt.Sprintf("uva:%d:%#x", a.Owner(), uint64(a)&((1<<OwnerShift)-1))
}

// Base reports the first usable address of an owner's region. The first page
// of every region is left unmapped so that 0-ish addresses fault, as a null
// guard.
func Base(owner int) Addr {
	if owner < 0 || owner >= MaxOwners {
		panic(fmt.Sprintf("uva: owner %d out of range", owner))
	}
	return Addr(uint64(owner)<<OwnerShift + PageSize)
}

// Limit reports the first address past an owner's region.
func Limit(owner int) Addr { return Addr(uint64(owner+1) << OwnerShift) }

// PageAddr reports the first address of a page.
func PageAddr(id PageID) Addr { return Addr(uint64(id) << PageShift) }

// Arena is a thread-local allocator over one owner's region: a bump pointer
// with size-segregated free lists. Allocations are 8-byte aligned.
//
// In DSMTX only the owning thread allocates from its arena, so Arena needs
// no locking; the unified address space makes the resulting pointers valid
// everywhere.
type Arena struct {
	owner int
	next  Addr
	limit Addr
	free  map[int64][]Addr // size class -> free addresses
	sizes map[Addr]int64   // live allocation sizes (for Free without size)
}

// NewArena creates the allocator for an owner's region.
func NewArena(owner int) *Arena {
	return &Arena{
		owner: owner,
		next:  Base(owner),
		limit: Limit(owner),
		free:  make(map[int64][]Addr),
		sizes: make(map[Addr]int64),
	}
}

func roundUp(n int64) int64 { return (n + WordSize - 1) &^ (WordSize - 1) }

// Alloc returns the address of a fresh size-byte allocation.
func (a *Arena) Alloc(size int64) Addr {
	if size <= 0 {
		panic(fmt.Sprintf("uva: Alloc(%d)", size))
	}
	size = roundUp(size)
	if list := a.free[size]; len(list) > 0 {
		addr := list[len(list)-1]
		a.free[size] = list[:len(list)-1]
		a.sizes[addr] = size
		return addr
	}
	addr := a.next
	if Addr(uint64(addr)+uint64(size)) > a.limit {
		panic(fmt.Sprintf("uva: owner %d region exhausted", a.owner))
	}
	a.next = Addr(uint64(addr) + uint64(size))
	a.sizes[addr] = size
	return addr
}

// AllocWords allocates n 8-byte words.
func (a *Arena) AllocWords(n int) Addr { return a.Alloc(int64(n) * WordSize) }

// Free recycles an allocation made by this arena. Freeing an unknown address
// panics — that is a use-after-free or cross-arena free in the making.
func (a *Arena) Free(addr Addr) {
	size, ok := a.sizes[addr]
	if !ok {
		panic(fmt.Sprintf("uva: Free(%v): not a live allocation of owner %d", addr, a.owner))
	}
	delete(a.sizes, addr)
	a.free[size] = append(a.free[size], addr)
}
