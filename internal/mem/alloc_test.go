package mem

import (
	"testing"

	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// Allocation-regression tests: the hot-path claims of the chunked page
// table. Ceilings are generous (the claim is "bounded", not "exactly N")
// but tight enough that reintroducing a per-op allocation fails.

// TestLoadStoreAllocFree pins steady-state Load/Store on resident pages at
// zero heap allocations: the chunk map lookup, slot cache, and COW check
// all run without touching the heap once pages are faulted in.
func TestLoadStoreAllocFree(t *testing.T) {
	im := NewImage(nil)
	const pages = 16
	base := uva.Base(1)
	for p := 0; p < pages; p++ {
		im.Store(base+uva.Addr(p)*uva.PageSize, 1) // pre-fault
	}
	var sink uint64
	per := testing.AllocsPerRun(20, func() {
		for p := 0; p < pages; p++ {
			a := base + uva.Addr(p)*uva.PageSize
			im.Store(a, sink)
			sink += im.Load(a)
		}
	})
	if per > 0 {
		t.Fatalf("resident Load/Store allocated %.1f times per %d-op run, want 0", per, 2*pages)
	}
}

// TestLoadStoreBytesAllocBounded bounds the bulk path: LoadBytes allocates
// the destination slice and nothing else; LoadBytesInto, ChecksumRange, and
// StoreBytes over resident exclusively-owned pages allocate nothing.
func TestLoadStoreBytesAllocBounded(t *testing.T) {
	im := NewImage(nil)
	base := uva.Base(2)
	buf := make([]byte, 3*uva.PageSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	im.StoreBytes(base, buf) // pre-fault and take ownership
	per := testing.AllocsPerRun(20, func() {
		im.StoreBytes(base, buf)
	})
	if per > 0 {
		t.Fatalf("resident StoreBytes allocated %.1f times per run, want 0", per)
	}
	per = testing.AllocsPerRun(20, func() {
		im.LoadBytes(base, len(buf))
	})
	if per > 2 { // destination slice (+ size-class slack)
		t.Fatalf("LoadBytes allocated %.1f times per run, want <= 2", per)
	}
	dst := make([]byte, len(buf)-13) // off the page grid, odd length, three pages
	per = testing.AllocsPerRun(20, func() {
		im.LoadBytesInto(dst, base+8)
	})
	if per > 0 {
		t.Fatalf("resident LoadBytesInto allocated %.1f times per run, want 0", per)
	}
	var sink uint64
	per = testing.AllocsPerRun(20, func() {
		sink += im.ChecksumRange(base+8, len(dst))
	})
	if per > 0 {
		t.Fatalf("resident ChecksumRange allocated %.1f times per run, want 0", per)
	}
}

// TestInstrumentedLoadStoreAllocFree pins the instrumented image to the
// same zero-allocation claim: metric handles are plain integer adds, so
// attaching a registry must not put the resident Load/Store fast path (or
// the fault/reset cycle, below) back on the heap.
func TestInstrumentedLoadStoreAllocFree(t *testing.T) {
	im := NewImage(nil)
	im.Instrument(trace.NewMetrics())
	const pages = 16
	base := uva.Base(7)
	for p := 0; p < pages; p++ {
		im.Store(base+uva.Addr(p)*uva.PageSize, 1)
	}
	var sink uint64
	per := testing.AllocsPerRun(20, func() {
		for p := 0; p < pages; p++ {
			a := base + uva.Addr(p)*uva.PageSize
			im.Store(a, sink)
			sink += im.Load(a)
		}
	})
	if per > 0 {
		t.Fatalf("instrumented resident Load/Store allocated %.1f times per run, want 0", per)
	}
}

// TestInstrumentedFaultPathUsesPool repeats the fault/reset pool test with
// metrics attached: the fault counter, recycle counter, and resident gauge
// sit on those paths and must not add heap traffic.
func TestInstrumentedFaultPathUsesPool(t *testing.T) {
	im := NewImage(nil)
	im.ReleaseOnReset(true)
	im.Instrument(trace.NewMetrics())
	const pages = 64
	base := uva.Base(8)
	per := testing.AllocsPerRun(50, func() {
		for p := 0; p < pages; p++ {
			im.Store(base+uva.Addr(p)*uva.PageSize, uint64(p))
		}
		im.Reset()
	})
	if per > pages/2 {
		t.Fatalf("instrumented fault/reset cycle allocated %.1f times per %d-page round, want <= %d",
			per, pages, pages/2)
	}
}

// TestFaultPathUsesPool checks that Reset with frame release enabled lets
// refault cycles run from the page pool: repeated fault-in/reset rounds
// must stay far below one page allocation per fault.
func TestFaultPathUsesPool(t *testing.T) {
	im := NewImage(nil)
	im.ReleaseOnReset(true)
	const pages = 64
	base := uva.Base(3)
	per := testing.AllocsPerRun(50, func() {
		for p := 0; p < pages; p++ {
			im.Store(base+uva.Addr(p)*uva.PageSize, uint64(p))
		}
		im.Reset()
	})
	// Each round faults 64 pages and allocates chunk-map bookkeeping; the
	// page frames themselves must come from the pool, not the heap.
	if per > pages/2 {
		t.Fatalf("fault/reset cycle allocated %.1f times per %d-page round, want <= %d",
			per, pages, pages/2)
	}
}
