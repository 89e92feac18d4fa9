package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"dsmtx/internal/uva"
)

func TestBulkRoundTrip(t *testing.T) {
	im := NewImage(nil)
	addr := uva.Base(0)
	data := []byte("the quick brown fox jumps over the lazy dog")
	im.StoreBytes(addr, data)
	if got := im.LoadBytes(addr, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("LoadBytes = %q", got)
	}
}

func TestBulkCrossesPages(t *testing.T) {
	im := NewImage(nil)
	addr := uva.Base(0) + uva.PageSize - 16 // straddles a page boundary
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	im.StoreBytes(addr, data)
	if got := im.LoadBytes(addr, len(data)); !bytes.Equal(got, data) {
		t.Fatal("cross-page block corrupted")
	}
	if im.Resident() != 2 {
		t.Fatalf("Resident = %d, want 2 pages", im.Resident())
	}
}

func TestBulkInteroperatesWithWords(t *testing.T) {
	im := NewImage(nil)
	addr := uva.Base(0)
	im.Store(addr, 0x0807060504030201)
	got := im.LoadBytes(addr, 8)
	for i := byte(0); i < 8; i++ {
		if got[i] != i+1 {
			t.Fatalf("byte %d = %d (little-endian layout expected)", i, got[i])
		}
	}
}

func TestBulkCopyOnWriteSnapshot(t *testing.T) {
	im := NewImage(nil)
	addr := uva.Base(0)
	im.StoreBytes(addr, []byte("aaaa"))
	snap := im.Snapshot()
	im.StoreBytes(addr, []byte("bbbb"))
	if string(snap.LoadBytes(addr, 4)) != "aaaa" {
		t.Fatal("snapshot corrupted by bulk store")
	}
}

func TestChecksumRangeMatchesBytes(t *testing.T) {
	im := NewImage(nil)
	addr := uva.Base(0)
	data := []byte{1, 2, 3, 4, 5}
	im.StoreBytes(addr, data)
	if im.ChecksumRange(addr, 5) != ChecksumBytes(data) {
		t.Fatal("ChecksumRange != ChecksumBytes")
	}
}

// TestChecksumRangeInPlace pins ChecksumRange, which hashes pages where they
// lie, to ChecksumBytes over a copy: starts inside a page (bulk starts are
// word-aligned, so "unaligned" means off the page grid), odd lengths, and
// ranges straddling one or several page boundaries — through the fault path
// too, since the range reaches pages the image has never touched.
func TestChecksumRangeInPlace(t *testing.T) {
	im := NewImage(nil)
	base := uva.Base(4)
	data := make([]byte, 3*uva.PageSize+40)
	for i := range data {
		data[i] = byte(i*131 + i>>8)
	}
	im.StoreBytes(base, data)
	for _, start := range []int{0, 8, 16, uva.PageSize - 8, uva.PageSize, 2*uva.PageSize - 24} {
		for _, n := range []int{0, 1, 7, 13, 255, uva.PageSize - 1, uva.PageSize + 3, 2*uva.PageSize + 9, len(data) - start + 100} {
			a := base + uva.Addr(start)
			got := im.ChecksumRange(a, n) // first, so it is the one that faults
			if want := ChecksumBytes(im.LoadBytes(a, n)); got != want {
				t.Fatalf("ChecksumRange(+%d, %d) = %#x, ChecksumBytes(LoadBytes) = %#x", start, n, got, want)
			}
		}
	}
}

func TestChecksumSensitivity(t *testing.T) {
	a := ChecksumBytes([]byte{0, 0, 1})
	b := ChecksumBytes([]byte{0, 1, 0})
	if a == b {
		t.Fatal("checksum insensitive to byte order")
	}
}

// Property: StoreBytes/LoadBytes round-trips at arbitrary aligned offsets
// and lengths.
func TestBulkProperty(t *testing.T) {
	f := func(off uint16, data []byte) bool {
		im := NewImage(nil)
		addr := uva.Base(0) + uva.Addr(off&0x1fff)*8
		im.StoreBytes(addr, data)
		return bytes.Equal(im.LoadBytes(addr, len(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
