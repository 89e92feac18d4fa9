package core

import (
	"bytes"
	"testing"

	"dsmtx/internal/mem"
	"dsmtx/internal/uva"
)

// TestShardSpaceBulkAcrossOwners pins the federated view's bulk reads to a
// single image holding the same bytes: LoadBytesInto fills each owner's
// segment in place — at starts off the page and owner-block grid, odd
// lengths, and ranges spanning several ownership blocks.
func TestShardSpaceBulkAcrossOwners(t *testing.T) {
	sys := &System{cfg: Config{CommitShards: 3}}
	sys.buildOwnerTable()
	sp := &shardSpace{sys: sys, imgs: []*mem.Image{mem.NewImage(nil), mem.NewImage(nil), mem.NewImage(nil)}}
	ref := mem.NewImage(nil)
	base := uva.Base(1)
	data := make([]byte, 4*ownerSpan+100)
	for i := range data {
		data[i] = byte(i*167 + i>>12)
	}
	sp.StoreBytes(base, data)
	ref.StoreBytes(base, data)
	owners := map[int]bool{}
	for off := 0; off < len(data); off += ownerSpan {
		owners[sys.ownerOf((base + uva.Addr(off)).Page())] = true
	}
	if len(owners) < 2 {
		t.Fatalf("fixture spans %d owner, want several", len(owners))
	}
	for _, start := range []int{0, 8, uva.PageSize + 16, ownerSpan - 8, 2*ownerSpan - 4096} {
		for _, n := range []int{0, 1, 13, uva.PageSize + 5, ownerSpan + 1, 3*ownerSpan + 77} {
			a := base + uva.Addr(start)
			want := ref.LoadBytes(a, n)
			got := make([]byte, n)
			sp.LoadBytesInto(got, a)
			if !bytes.Equal(got, want) {
				t.Fatalf("LoadBytesInto(+%d, %d) differs from one image's bytes", start, n)
			}
		}
	}
}

// TestShardSpaceMapPagesToOwners: the federated view maps each page of a
// run spanning several ownership blocks into its owner shard's image only,
// aliasing the caller's frame, and reads the run back whole.
func TestShardSpaceMapPagesToOwners(t *testing.T) {
	sys := &System{cfg: Config{CommitShards: 3}}
	sys.buildOwnerTable()
	imgs := []*mem.Image{mem.NewImage(nil), mem.NewImage(nil), mem.NewImage(nil)}
	sp := &shardSpace{sys: sys, imgs: imgs}
	base := uva.Base(1) + ownerSpan - 2*uva.PageSize // off the owner-block grid
	frames := make([]*mem.Page, 3*pageShardBlock)
	for i := range frames {
		frames[i] = new(mem.Page)
		frames[i].Words[0] = uint64(i + 1)
	}
	sp.MapPages(base, frames)
	for i, f := range frames {
		id := (base + uva.Addr(i*uva.PageSize)).Page()
		for k, im := range imgs {
			if im.Has(id) != (k == sys.ownerOf(id)) {
				t.Fatalf("page %d resident in shard %d, owner is %d", i, k, sys.ownerOf(id))
			}
		}
		if got := sp.Load(base + uva.Addr(i*uva.PageSize)); got != f.Words[0] {
			t.Fatalf("page %d reads %d, its frame holds %d", i, got, f.Words[0])
		}
	}
	sp.Store(base, 99)
	if frames[0].Words[0] != 1 {
		t.Fatal("a store through the view wrote the caller's frame")
	}
}
