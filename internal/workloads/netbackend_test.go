package workloads_test

import (
	gonet "net"
	"os"
	"slices"
	"testing"
	"time"

	"dsmtx/internal/core"
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

// BenchmarkGzipRungs times 164.gzip (scale 1, 5 cores, the net-loopback
// bench row's job) on three rungs of the ladder from the host kernel to two
// daemon processes, so a gap between rungs names the layer that costs it:
//
//	r0  host: one process, ranks on goroutines, no wire
//	r2  two in-process ServeLoop daemons joined with Connect: wire and TCP,
//	    one Go runtime
//	r3  two daemon processes (LaunchLocal re-execs this test binary)
//
// Rung r1 (the codec alone, no sockets) is not built. Each sub-benchmark
// runs one untimed job to warm its fleet, then reports the median job as
// p50_ms beside the mean ns/op; every job must reach the sequential
// checksum. Run: go test ./internal/workloads/ -run NONE -bench GzipRungs
// -benchtime 24x
func BenchmarkGzipRungs(b *testing.B) {
	const cores = 5
	in := workloads.Input{Scale: 1, Seed: 1}
	bench, err := workloads.ByName("164.gzip")
	if err != nil {
		b.Fatal(err)
	}
	_, want, err := workloads.RunSequentialRef(bench, in)
	if err != nil {
		b.Fatal(err)
	}
	timeJobs := func(b *testing.B, job func() (uint64, error)) {
		b.Helper()
		if _, err := job(); err != nil { // warm-up
			b.Fatal(err)
		}
		ms := make([]float64, 0, b.N)
		b.ResetTimer()
		for range b.N {
			t0 := time.Now()
			sum, err := job()
			if err != nil {
				b.Fatal(err)
			}
			ms = append(ms, float64(time.Since(t0).Microseconds())/1e3)
			if sum != want {
				b.Fatalf("checksum %#x != sequential %#x", sum, want)
			}
		}
		b.StopTimer()
		slices.Sort(ms)
		b.ReportMetric(ms[len(ms)/2], "p50_ms")
	}
	netJob := func(cl *netrun.Cluster) func() (uint64, error) {
		return func() (uint64, error) {
			res, err := cl.Run(netrun.JobSpec{Bench: "164.gzip", Scale: in.Scale, Seed: in.Seed, Cores: cores})
			return res.Checksum, err
		}
	}

	b.Run("r0-host", func(b *testing.B) {
		host := func(cfg *core.Config) { cfg.Backend = core.BackendHost }
		timeJobs(b, func() (uint64, error) {
			res, err := workloads.RunParallel(bench, in, workloads.DSMTX, cores, host)
			return res.Checksum, err
		})
	})
	b.Run("r2-inproc", func(b *testing.B) {
		var addrs []string
		for range 2 {
			ln, err := gonet.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			addrs = append(addrs, ln.Addr().String())
			stop, exit := make(chan struct{}), make(chan int, 1)
			go func() { exit <- netrun.ServeLoop(ln, stop) }()
			b.Cleanup(func() { close(stop); <-exit })
		}
		cl, err := netrun.Connect(addrs)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(cl.Close) // before the daemons stop: their drain waits for it
		timeJobs(b, netJob(cl))
	})
	b.Run("r3-procs", func(b *testing.B) {
		cl, err := netrun.LaunchLocal(2, os.Args[0])
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		timeJobs(b, netJob(cl))
	})
}
