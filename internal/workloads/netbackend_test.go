package workloads_test

import (
	"os"
	"testing"

	"dsmtx/internal/netrun"
	"dsmtx/internal/workloads"
)

// checkBackendEquivalenceNet is the distributed sibling of
// checkBackendEquivalence: the same benchmark runs sequentially, on the
// virtual-time kernel, and as a real multi-process job — the test binary
// re-execs itself as a loopback daemon fleet (see TestMain) and the ranks
// talk TCP. All three must agree on the committed checksum, and net must
// match vtime's committed/misspec counts exactly.
func checkBackendEquivalenceNet(t *testing.T, name string, in workloads.Input, cores, daemons int) {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}

	_, seqCheck, err := workloads.RunSequentialRef(b, in)
	if err != nil {
		t.Fatal(err)
	}
	vres, err := workloads.RunParallel(b, in, workloads.DSMTX, cores, nil)
	if err != nil {
		t.Fatalf("vtime: %v", err)
	}
	if vres.Checksum != seqCheck {
		t.Fatalf("vtime checksum %#x != sequential %#x", vres.Checksum, seqCheck)
	}

	cl, err := netrun.LaunchLocal(daemons, os.Args[0])
	if err != nil {
		t.Fatalf("launch daemons: %v", err)
	}
	defer cl.Close()
	nres, err := cl.Run(netrun.JobSpec{
		Bench:       name,
		Scale:       in.Scale,
		MisspecRate: in.MisspecRate,
		Seed:        in.Seed,
		Cores:       cores,
	})
	if err != nil {
		t.Fatalf("net: %v", err)
	}

	if nres.Checksum != seqCheck {
		t.Errorf("net checksum %#x != sequential %#x", nres.Checksum, seqCheck)
	}
	if nres.Committed != vres.Committed {
		t.Errorf("net committed %d != vtime %d", nres.Committed, vres.Committed)
	}
	if nres.Misspecs != vres.Misspecs {
		t.Errorf("net misspecs %d != vtime %d", nres.Misspecs, vres.Misspecs)
	}
	if nres.Elapsed <= 0 {
		t.Errorf("net elapsed %v, want > 0", nres.Elapsed)
	}
	if in.MisspecRate > 0 && nres.Misspecs == 0 {
		t.Errorf("misspec rate %v produced no misspeculations on net", in.MisspecRate)
	}
	if in.MisspecRate == 0 && nres.Misspecs != 0 {
		t.Errorf("misspec rate 0 produced %d misspeculations on net", nres.Misspecs)
	}
	t.Logf("%s net: %d daemons, committed %d, misspecs %d, traffic %d msgs / %d bytes",
		name, nres.Daemons, nres.Committed, nres.Misspecs, nres.Traffic.Messages, nres.Traffic.Bytes)
}

func TestBackendEquivalenceNetCRC32(t *testing.T) {
	checkBackendEquivalenceNet(t, "crc32", workloads.Input{Scale: 1, Seed: 42, MisspecRate: 0.02}, 8, 2)
}

func TestBackendEquivalenceNetBlackscholes(t *testing.T) {
	checkBackendEquivalenceNet(t, "blackscholes", workloads.Input{Scale: 1, Seed: 42}, 8, 2)
}

func TestBackendEquivalenceNetGzip(t *testing.T) {
	checkBackendEquivalenceNet(t, "164.gzip", workloads.Input{Scale: 1, Seed: 42}, 11, 2)
}
