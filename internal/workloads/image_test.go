package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/uva"
)

// imageDigest hashes every non-zero resident page of img in ascending page
// order, each page number before its words, and counts those pages. All-zero
// pages are skipped: which zero pages are resident depends on what a run
// happened to touch, not on what it committed.
func imageDigest(img *mem.Image) (string, int) {
	frames := make(map[uva.PageID]*mem.Page)
	img.ForEachResident(func(id uva.PageID, pg *mem.Page) {
		if slices.ContainsFunc(pg.Words[:], func(w uint64) bool { return w != 0 }) {
			frames[id] = pg
		}
	})
	ids := make([]uva.PageID, 0, len(frames))
	for id := range frames {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	h := sha256.New()
	var buf [8 * (1 + uva.PageWords)]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		for i, w := range frames[id].Words {
			binary.LittleEndian.PutUint64(buf[8*(i+1):], w)
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)), len(ids)
}

// TestCommittedImageMatchesSequential holds the whole committed image, not
// only the checksummed output range, to the sequential reference's: every
// workload under DSMTX at 8 cores and misspeculation rate 0.02, on vtime and
// live on host, must commit the same non-zero pages with the same bytes.
// 052.alvinn is the one exception: its accumulator-expansion slots are laid
// out per worker by design, so the parallel image differs from the
// sequential one there, and only its checksum is compared.
func TestCommittedImageMatchesSequential(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.02}
	for _, b := range All() {
		seq, _, err := sequentialChain(b, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantPages := imageDigest(seq.img)
		t.Logf("%s: sequential image %s (%d non-zero pages)", b.Name, want, wantPages)
		for _, backend := range []core.Backend{core.BackendVTime, core.BackendHost} {
			c := NewChain(b, in)
			var res Result
			for range c.Invocations() {
				if err := c.Step(&res, DSMTX, 8, func(cfg *core.Config) { cfg.Backend = backend }); err != nil {
					t.Fatalf("%s on %s: %v", b.Name, backend, err)
				}
			}
			if got, want := c.Checksum(), seq.Checksum(); got != want {
				t.Errorf("%s on %s: checksum %#x, sequential %#x", b.Name, backend, got, want)
			}
			if b.Name == "052.alvinn" {
				continue
			}
			if got, pages := imageDigest(c.img); got != want || pages != wantPages {
				t.Errorf("%s on %s: committed image %s (%d non-zero pages), sequential %s (%d)",
					b.Name, backend, got, pages, want, wantPages)
			}
		}
	}
}
