package workloads

import (
	"testing"

	"dsmtx/internal/platform"
)

// TestSingleShardByteIdentity pins the one commit unit to goldens captured
// before commit sharding existed, observable for observable: virtual elapsed
// time, checksum, committed/misspec counts, wire bytes, kernel events and
// message totals. They were re-captured once, when vtime took on bounded
// run-ahead and selective re-arm: every checksum and count stayed, and the
// recovering crc32 row moved 8,984,460 → 6,351,964 wire bytes and 842 → 699
// messages, the page refetches a full re-arm paid. Any drift here means the default configuration stopped
// being the paper's single-commit-unit machine.
func TestSingleShardByteIdentity(t *testing.T) {
	goldens := []struct {
		bench     string
		cores     int
		rate      float64
		elapsed   platform.Duration
		checksum  uint64
		committed uint64
		misspecs  uint64
		bytes     uint64
		events    uint64
		msgs      uint64
	}{
		{"crc32", 8, 0, 9240167, 0xd1cdbc30c4e397f0, 96, 0, 0, 0, 0},
		{"crc32", 8, 0.02, 12883287, 0x87b5799474782c7c, 96, 1, 6351964, 25326, 699},
		{"164.gzip", 11, 0, 8413195, 0xa84730583335fe25, 250, 0, 0, 0, 0},
		{"blackscholes", 8, 0, 26714927, 0xc763396f78d6acbf, 252, 0, 0, 0, 0},
		{"swaptions", 9, 0, 3669793, 0x2ef919486377735c, 128, 0, 0, 0, 0},
	}
	for _, g := range goldens {
		b, err := ByName(g.bench)
		if err != nil {
			t.Fatal(err)
		}
		in := Input{Scale: 1, Seed: 42, MisspecRate: g.rate}
		res, err := RunParallel(b, in, DSMTX, g.cores, nil)
		if err != nil {
			t.Fatalf("%s@%d: %v", g.bench, g.cores, err)
		}
		if res.Elapsed != g.elapsed || res.Checksum != g.checksum ||
			res.Committed != g.committed || res.Misspecs != g.misspecs {
			t.Errorf("%s@%d rate=%v: elapsed=%d checksum=%#x committed=%d misspecs=%d, want %d/%#x/%d/%d",
				g.bench, g.cores, g.rate, res.Elapsed, res.Checksum, res.Committed, res.Misspecs,
				g.elapsed, g.checksum, g.committed, g.misspecs)
		}
		// The full wire/event fingerprint is pinned on the recovery-bearing
		// row; the zero-valued goldens only pin the result fields above.
		if g.bytes != 0 && (res.Traffic.Bytes != g.bytes || res.Events != g.events || res.Traffic.Messages != g.msgs) {
			t.Errorf("%s@%d rate=%v: bytes=%d events=%d msgs=%d, want %d/%d/%d",
				g.bench, g.cores, g.rate, res.Traffic.Bytes, res.Events, res.Traffic.Messages,
				g.bytes, g.events, g.msgs)
		}
	}
}
