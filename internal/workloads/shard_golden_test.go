package workloads

import (
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/platform"
)

// TestBackendEquivalenceCommitShards extends the backend-equivalence gate
// across the sharded commit pipeline: for every shard count both backends
// must reproduce the sequential checksum with identical committed and
// misspeculation counts. Part of the -race gate in verify.sh, which makes
// the cross-shard vote and the AnySource control mailboxes part of the
// host data-race audit.
func TestBackendEquivalenceCommitShards(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.02}
	b, err := ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	_, seqCheck, err := RunSequentialRef(b, in)
	if err != nil {
		t.Fatal(err)
	}
	var base Result
	for _, shards := range []int{1, 2, 4} {
		vres, err := RunParallel(b, in, DSMTX, 12, func(cfg *core.Config) {
			cfg.CommitShards = shards
		})
		if err != nil {
			t.Fatalf("vtime shards=%d: %v", shards, err)
		}
		hres, err := RunParallel(b, in, DSMTX, 12, func(cfg *core.Config) {
			cfg.Backend = core.BackendHost
			cfg.CommitShards = shards
		})
		if err != nil {
			t.Fatalf("host shards=%d: %v", shards, err)
		}
		if vres.Checksum != seqCheck {
			t.Errorf("shards=%d: vtime checksum %#x != sequential %#x", shards, vres.Checksum, seqCheck)
		}
		if hres.Checksum != seqCheck {
			t.Errorf("shards=%d: host checksum %#x != sequential %#x", shards, hres.Checksum, seqCheck)
		}
		if hres.Committed != vres.Committed || hres.Misspecs != vres.Misspecs {
			t.Errorf("shards=%d: host committed/misspecs %d/%d, vtime %d/%d",
				shards, hres.Committed, hres.Misspecs, vres.Committed, vres.Misspecs)
		}
		if shards == 1 {
			base = vres
		} else if vres.Committed != base.Committed || vres.Misspecs != base.Misspecs {
			t.Errorf("shards=%d: committed/misspecs %d/%d differ from 1-shard %d/%d",
				shards, vres.Committed, vres.Misspecs, base.Committed, base.Misspecs)
		}
	}
}

// TestSingleShardByteIdentity pins CommitShards=1 — the sharded pipeline
// run with one shard — to the pre-sharding runtime, observable for
// observable: virtual elapsed time, checksum, committed/misspec counts, wire
// bytes, kernel events and message totals captured on the commit of record
// before the sharded pipeline landed. Any drift here means the default
// configuration stopped being the paper's single-commit-unit machine.
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
		{"crc32", 8, 0, 9238487, 0xd1cdbc30c4e397f0, 96, 0, 0, 0, 0},
		{"crc32", 8, 0.02, 13062054, 0x87b5799474782c7c, 96, 1, 8984460, 25957, 842},
		{"164.gzip", 11, 0, 8412691, 0xa84730583335fe25, 250, 0, 0, 0, 0},
		{"blackscholes", 8, 0, 26715527, 0xc763396f78d6acbf, 252, 0, 0, 0, 0},
		{"swaptions", 9, 0, 3667441, 0x2ef919486377735c, 128, 0, 0, 0, 0},
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
