package workloads_test

import (
	gonet "net"
	"os"
	"slices"
	"testing"
	"time"

	"dsmtx/internal/core"
	"dsmtx/internal/job"
	"dsmtx/internal/netrun"
	"dsmtx/internal/workloads"
)

// TestBackendEquivalenceNet is the distributed sibling of
// checkBackendEquivalence: every benchmark runs sequentially, on the
// virtual-time kernel, and as a real multi-process job — the test binary
// re-execs itself as a loopback daemon fleet (see TestMain) and the ranks
// talk TCP — under both paradigms. All three must agree on the committed
// checksum, and net must match vtime's committed/misspec counts exactly.
// Every job runs on the one two-daemon fleet, so the daemon without the
// commit rank replays each workload's Setup allocation-only, as a
// production fleet does. Several workloads never misspeculate at this rate
// (vtime reads 0 too), so the recovery path is required of the table, not
// of each row. A last leg runs each config knob on three workloads: the
// daemons tune their ranks from the spec, so a knob must verify too.
func TestBackendEquivalenceNet(t *testing.T) {
	const cores = 8
	in := workloads.Input{Scale: 1, Seed: 42, MisspecRate: 0.02}
	cl, err := netrun.LaunchLocal(2, os.Args[0])
	if err != nil {
		t.Fatalf("launch daemons: %v", err)
	}
	defer cl.Close()
	spec := func(bench string, p workloads.Paradigm, knob string) job.Spec {
		return job.Spec{Bench: bench, Paradigm: p.String(), Backend: "net", Cores: cores,
			Scale: in.Scale, Seed: in.Seed, Rate: in.MisspecRate, Knob: knob}
	}
	var recovered int
	for _, b := range workloads.All() {
		t.Run(b.Name, func(t *testing.T) {
			_, seqCheck, err := workloads.RunSequentialRef(b, in)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []workloads.Paradigm{workloads.DSMTX, workloads.TLS} {
				t.Run(p.String(), func(t *testing.T) {
					vres, err := workloads.RunParallel(b, in, p, cores, nil)
					if err != nil {
						t.Fatalf("vtime: %v", err)
					}
					if vres.Checksum != seqCheck {
						t.Fatalf("vtime checksum %#x != sequential %#x", vres.Checksum, seqCheck)
					}
					nres, err := cl.RunJob(spec(b.Name, p, job.KnobNone))
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
					// The paradigm is the plan: a clean run executes each of its
					// stages once per committed MTX, on any backend.
					if nres.Misspecs == 0 && nres.SubTXs != vres.SubTXs {
						t.Errorf("clean run: net executed %d subTXs, vtime %d", nres.SubTXs, vres.SubTXs)
					}
					if nres.Misspecs > 0 {
						recovered++
					}
					t.Logf("%d daemons, committed %d, misspecs %d, traffic %d msgs / %d bytes",
						nres.Daemons, nres.Committed, nres.Misspecs, nres.Traffic.Messages, nres.Traffic.Bytes)
				})
			}
		})
	}
	if recovered == 0 && !t.Failed() {
		t.Errorf("misspec rate %v produced no misspeculations on net in any workload", in.MisspecRate)
	}
	for _, knob := range []string{job.KnobQueueUnopt, job.KnobManycore} {
		for _, bench := range []string{"crc32", "164.gzip", "197.parser"} {
			t.Run("knob="+knob+"/"+bench, func(t *testing.T) {
				b, err := workloads.ByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				_, seqCheck, err := workloads.RunSequentialRef(b, in)
				if err != nil {
					t.Fatal(err)
				}
				nres, err := cl.RunJob(spec(bench, workloads.DSMTX, knob))
				if err != nil {
					t.Fatalf("net: %v", err)
				}
				if nres.Checksum != seqCheck {
					t.Errorf("net checksum %#x != sequential %#x", nres.Checksum, seqCheck)
				}
			})
		}
	}
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
// Those three reuse one seed, so every timed job finds its input already
// generated. r3-first is r3 with a seed its fleet has not seen on every
// job, as most net-loopback bench jobs are: the commit daemon generates
// the input inside the job.
//
// Rung r1 (the codec alone, no sockets) is not built. Each sub-benchmark
// runs one untimed job to warm its fleet, then reports the median job as
// p50_ms beside the mean ns/op; every job must reach the sequential
// checksum, computed before the timer starts. Run: go test
// ./internal/workloads/ -run NONE -bench GzipRungs -benchtime 24x
func BenchmarkGzipRungs(b *testing.B) {
	const cores = 5
	bench, err := workloads.ByName("164.gzip")
	if err != nil {
		b.Fatal(err)
	}
	input := func(seed uint64) workloads.Input { return workloads.Input{Scale: 1, Seed: seed} }
	// timeJobs runs job on seeds[0] untimed, then on each later seed timed.
	timeJobs := func(b *testing.B, seeds []uint64, job func(seed uint64) (uint64, error)) {
		b.Helper()
		want := make(map[uint64]uint64)
		for _, seed := range seeds {
			if _, ok := want[seed]; !ok {
				_, sum, err := workloads.RunSequentialRef(bench, input(seed))
				if err != nil {
					b.Fatal(err)
				}
				want[seed] = sum
			}
		}
		if _, err := job(seeds[0]); err != nil { // warm-up
			b.Fatal(err)
		}
		ms := make([]float64, 0, b.N)
		b.ResetTimer()
		for _, seed := range seeds[1:] {
			t0 := time.Now()
			sum, err := job(seed)
			if err != nil {
				b.Fatal(err)
			}
			ms = append(ms, float64(time.Since(t0).Microseconds())/1e3)
			if sum != want[seed] {
				b.Fatalf("seed %d: checksum %#x != sequential %#x", seed, sum, want[seed])
			}
		}
		b.StopTimer()
		slices.Sort(ms)
		b.ReportMetric(ms[len(ms)/2], "p50_ms")
	}
	seen := func(b *testing.B) []uint64 { return slices.Repeat([]uint64{1}, b.N+1) }
	netJob := func(cl *netrun.Cluster) func(uint64) (uint64, error) {
		return func(seed uint64) (uint64, error) {
			res, err := cl.RunJob(job.Spec{Bench: "164.gzip", Backend: "net", Seed: seed, Cores: cores})
			return res.Checksum, err
		}
	}

	b.Run("r0-host", func(b *testing.B) {
		host := func(cfg *core.Config) { cfg.Backend = core.BackendHost }
		timeJobs(b, seen(b), func(seed uint64) (uint64, error) {
			res, err := workloads.RunParallel(bench, input(seed), workloads.DSMTX, cores, host)
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
		timeJobs(b, seen(b), netJob(cl))
	})
	b.Run("r3-procs", func(b *testing.B) {
		cl, err := netrun.LaunchLocal(2, os.Args[0])
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		timeJobs(b, seen(b), netJob(cl))
	})
	b.Run("r3-first", func(b *testing.B) {
		cl, err := netrun.LaunchLocal(2, os.Args[0])
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		seeds := make([]uint64, b.N+1)
		for i := range seeds {
			seeds[i] = 1000 + uint64(i)
		}
		timeJobs(b, seeds, netJob(cl))
	})
}
