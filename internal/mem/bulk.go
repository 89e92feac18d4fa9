package mem

import (
	"encoding/binary"
	"fmt"

	"dsmtx/internal/uva"
)

// Bulk byte access. Workload kernels move blocks (input files, compression
// buffers, frames) through memory; doing that word-by-word would drown the
// simulation in events, so these helpers move whole ranges while still
// faulting pages through the normal Copy-On-Access path. Start addresses
// must be word-aligned; lengths are arbitrary.

// LoadBytes copies n bytes starting at addr out of the image into a new
// slice.
func (im *Image) LoadBytes(addr uva.Addr, n int) []byte {
	out := make([]byte, n)
	im.LoadBytesInto(out, addr)
	return out
}

// LoadBytesInto fills dst with the len(dst) bytes starting at addr.
func (im *Image) LoadBytesInto(dst []byte, addr uva.Addr) {
	im.loadPages(addr, len(dst), func(pg *Page, off, at, ln int) {
		copyOut(dst[at:at+ln], pg, off)
	})
}

// loadPages is the read side of every bulk access: it walks the n bytes at
// addr page by page, faulting protected pages in with the access hint set
// (so Copy-On-Access read-ahead fetches the whole run in one round trip),
// and hands fn each page, the byte offset into it, how many bytes of the
// range precede it, and how many of its bytes are in range.
func (im *Image) loadPages(addr uva.Addr, n int, fn func(pg *Page, off, at, ln int)) {
	checkAligned(addr)
	if n < 0 {
		panic(fmt.Sprintf("mem: bulk load of %d bytes at %v", n, addr))
	}
	if n > 0 {
		im.hintEnd = (addr + uva.Addr(n-1)).Page() + 1
		defer func() { im.hintEnd = 0 }()
	}
	for done := 0; done < n; {
		a := addr + uva.Addr(done)
		id := a.Page()
		s := im.slot(id)
		if s.pg == nil {
			im.fill(id, s)
		}
		off := a.PageOffset()
		chunk := min(uva.PageSize-off, n-done)
		fn(s.pg, off, done, chunk)
		done += chunk
	}
}

// StoreBytes copies b into the image starting at addr, copying shared
// (snapshot-aliased) pages first. A store covering an entire page installs
// a fresh page without faulting: fetching a page only to overwrite every
// byte would waste a Copy-On-Access round trip (write-allocate bypass).
func (im *Image) StoreBytes(addr uva.Addr, b []byte) {
	checkAligned(addr)
	if len(b) > 0 {
		im.hintEnd = (addr + uva.Addr(len(b)-1)).Page() + 1
		defer func() { im.hintEnd = 0 }()
	}
	for done := 0; done < len(b); {
		a := addr + uva.Addr(done)
		id := a.Page()
		off := a.PageOffset()
		chunk := min(uva.PageSize-off, len(b)-done)
		s := im.slot(id)
		if off == 0 && chunk == uva.PageSize {
			// Full-page overwrite: skip the fault; reuse the resident frame
			// in place when this image owns it exclusively, else install a
			// raw pool frame (every byte is written below).
			if s.pg == nil {
				s.pg = getPageRaw()
				im.resident++
				im.gResident.Add(1)
			} else if s.shared {
				s.pg = getPageRaw()
			}
			s.shared = false
		} else {
			if s.pg == nil {
				im.fill(id, s)
			}
			if s.shared {
				s.pg, s.shared = clonePage(s.pg), false
			}
		}
		s.dirty = true
		copyIn(s.pg, off, b[done:done+chunk])
		done += chunk
	}
}

// ChecksumRange returns the FNV-1a checksum of n bytes at addr, faulting
// pages as needed — how the try-commit unit validates bulk speculative
// reads, and how every workload checksums its output. It hashes the pages
// in place: ChecksumBytes(LoadBytes(addr, n)) without the copy.
func (im *Image) ChecksumRange(addr uva.Addr, n int) uint64 {
	h := uint64(checksumSeed)
	im.loadPages(addr, n, func(pg *Page, off, _, ln int) {
		// Bulk starts are word-aligned, so the range is whole words and then
		// a partial tail; byte k of a word is Words[k>>3] >> ((k&7)*8).
		b, end := off, off+ln
		for ; b+8 <= end; b += 8 {
			w := pg.Words[b>>3]
			for range 8 {
				h = (h ^ w&0xff) * fnvPrime
				w >>= 8
			}
		}
		for ; b < end; b++ {
			h = (h ^ pg.Words[b>>3]>>((b&7)*8)&0xff) * fnvPrime
		}
	})
	return h
}

// FNV-1a parameters: checksumSeed is the state before any byte.
const (
	checksumSeed = 14695981039346656037
	fnvPrime     = 1099511628211
)

// ChecksumBytes is FNV-1a over b.
func ChecksumBytes(b []byte) uint64 {
	h := uint64(checksumSeed)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// copyOut extracts bytes [off, off+len(dst)) of a page (little-endian word
// layout): byte k of a word is Words[k>>3] >> ((k&7)*8), so whole words
// move with a single little-endian store.
func copyOut(dst []byte, pg *Page, off int) {
	i := 0
	for ; i < len(dst) && (off+i)&7 != 0; i++ {
		b := off + i
		dst[i] = byte(pg.Words[b>>3] >> ((b & 7) * 8))
	}
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], pg.Words[(off+i)>>3])
	}
	for ; i < len(dst); i++ {
		b := off + i
		dst[i] = byte(pg.Words[b>>3] >> ((b & 7) * 8))
	}
}

// copyIn writes src into a page at byte offset off, whole words at a time
// where alignment allows.
func copyIn(pg *Page, off int, src []byte) {
	i := 0
	for ; i < len(src) && (off+i)&7 != 0; i++ {
		b := off + i
		shift := uint((b & 7) * 8)
		pg.Words[b>>3] = pg.Words[b>>3]&^(0xff<<shift) | uint64(src[i])<<shift
	}
	for ; i+8 <= len(src); i += 8 {
		pg.Words[(off+i)>>3] = binary.LittleEndian.Uint64(src[i:])
	}
	for ; i < len(src); i++ {
		b := off + i
		shift := uint((b & 7) * 8)
		pg.Words[b>>3] = pg.Words[b>>3]&^(0xff<<shift) | uint64(src[i])<<shift
	}
}
