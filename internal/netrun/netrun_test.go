package netrun_test

import (
	"io"
	gonet "net"
	"strings"
	"sync"
	"testing"
	"time"

	"dsmtx/internal/netrun"
	"dsmtx/internal/wire"
	"dsmtx/internal/workloads"
)

// These tests drive the coordinator/daemon pair through its multi-host
// surface — persistent ServeLoop daemons joined with Connect — inside one
// process: each daemon is a goroutine on its own loopback listener and the
// ranks still talk TCP. (The spawn-local LaunchLocal path is covered by the
// backend-equivalence tests in internal/workloads.)

// startDaemons runs n ServeLoop daemons and returns their addresses. At
// test end each is stopped and must report that every session succeeded.
func startDaemons(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := gonet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		stop := make(chan struct{})
		exit := make(chan int, 1)
		go func() { exit <- netrun.ServeLoop(ln, stop) }()
		t.Cleanup(func() {
			close(stop)
			if code := <-exit; code != 0 {
				t.Errorf("daemon %s: ServeLoop exit code %d", ln.Addr(), code)
			}
		})
	}
	return addrs
}

// connect joins addrs; the cluster closes before the daemons stop (a
// daemon's drain waits for its coordinator to hang up).
func connect(t *testing.T, addrs []string) *netrun.Cluster {
	t.Helper()
	cl, err := netrun.Connect(addrs)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// checkJob runs crc32 on cl and requires the sequential checksum with
// vtime's committed/misspec counts.
func checkJob(t *testing.T, cl *netrun.Cluster, in workloads.Input, cores int) {
	t.Helper()
	b, err := workloads.ByName("crc32")
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
	nres, err := cl.Run(netrun.JobSpec{Bench: "crc32", Scale: in.Scale,
		MisspecRate: in.MisspecRate, Seed: in.Seed, Cores: cores})
	if err != nil {
		t.Fatalf("net seed %d: %v", in.Seed, err)
	}
	if nres.Checksum != seqCheck {
		t.Errorf("seed %d: net checksum %#x != sequential %#x", in.Seed, nres.Checksum, seqCheck)
	}
	if nres.Committed != vres.Committed || nres.Misspecs != vres.Misspecs {
		t.Errorf("seed %d: net committed/misspecs %d/%d != vtime %d/%d",
			in.Seed, nres.Committed, nres.Misspecs, vres.Committed, vres.Misspecs)
	}
	if nres.Daemons != cl.Daemons() || nres.Elapsed <= 0 || nres.Traffic.Messages == 0 {
		t.Errorf("seed %d: daemons %d, elapsed %v, %d messages", in.Seed, nres.Daemons, nres.Elapsed, nres.Traffic.Messages)
	}
	// Every cross-daemon message is one frame sent and one admitted, on a
	// link that never dropped. (Bytes may trail: a daemon can report while
	// its writer still has the last frames queued.)
	if m := nres.Mesh; m.FramesOut == 0 || m.FramesOut != m.FramesIn || m.BytesIn == 0 || m.Reconnects != 0 || m.DupsDropped != 0 {
		t.Errorf("seed %d: mesh counters %+v", in.Seed, m)
	}
}

// TestConnectRunsSuccessiveJobs: one control session serves job after job.
// The second job has a different input, so a mesh or image left over from
// the first would show up as a wrong checksum or count.
func TestConnectRunsSuccessiveJobs(t *testing.T) {
	cl := connect(t, startDaemons(t, 2))
	if cl.Daemons() != 2 {
		t.Fatalf("Daemons() = %d, want 2", cl.Daemons())
	}
	checkJob(t, cl, workloads.Input{Scale: 1, Seed: 42, MisspecRate: 0.02}, 5)
	checkJob(t, cl, workloads.Input{Scale: 1, Seed: 7}, 5)
}

// TestRunRejectsCoordinatorSide: a spec the coordinator can refuse on its
// own fails without a frame reaching any daemon, so the session stays in
// step and the next job runs.
func TestRunRejectsCoordinatorSide(t *testing.T) {
	cl := connect(t, startDaemons(t, 2))
	if _, err := cl.Run(netrun.JobSpec{Bench: "no-such-bench", Cores: 5}); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("unknown bench: err = %v", err)
	}
	if _, err := cl.Run(netrun.JobSpec{Bench: "crc32", Cores: 1}); err == nil {
		t.Fatal("1 core: accepted a job the plan cannot place")
	}
	checkJob(t, cl, workloads.Input{Scale: 1, Seed: 42}, 5)

	// Five control streams into a listener that records what arrives: after
	// the refusals and Close each must have carried its Hello and nothing
	// else. (Five, because Cores < daemons is only reachable at or above
	// the crc32 plan's own minimum of 4 cores.)
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const streams = 5
	var wg sync.WaitGroup
	extra := make(chan string, streams) // one report per accepted stream
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := ln.Accept()
			if err != nil {
				extra <- err.Error()
				return
			}
			defer conn.Close()
			if typ, _, _, err := wire.ReadFrame(conn, nil); err != nil || typ != wire.FrameHello {
				extra <- "no hello"
				return
			}
			rest, _ := io.ReadAll(conn)
			if len(rest) > 0 {
				extra <- "frame bytes after the hello"
				return
			}
			extra <- ""
		}()
	}
	addrs := make([]string, streams)
	for i := range addrs {
		addrs[i] = ln.Addr().String()
	}
	wide, err := netrun.Connect(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wide.Run(netrun.JobSpec{Bench: "crc32", Cores: 4}); err == nil || !strings.Contains(err.Error(), "need at least one rank per daemon") {
		t.Errorf("4 cores on 5 daemons: err = %v", err)
	}
	if _, err := wide.Run(netrun.JobSpec{Bench: "no-such-bench", Cores: 8}); err == nil {
		t.Error("unknown bench accepted")
	}
	wide.Close()
	wg.Wait()
	for i := 0; i < streams; i++ {
		if msg := <-extra; msg != "" {
			t.Errorf("control stream: %s", msg)
		}
	}
}

// TestConnectFailsFast: a dead address is an error long before the
// handshake timeout, and an empty fleet is refused.
func TestConnectFailsFast(t *testing.T) {
	live := startDaemons(t, 1)[0]
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	start := time.Now()
	if _, err := netrun.Connect([]string{live, dead}); err == nil || !strings.Contains(err.Error(), "control dial daemon 1") {
		t.Fatalf("closed port: err = %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("closed port took %v to fail", d)
	}
	if _, err := netrun.Connect(nil); err == nil {
		t.Fatal("Connect(nil) succeeded")
	}
}

// TestCloseIdempotent: Close twice is harmless, and a closed cluster
// refuses work instead of hanging.
func TestCloseIdempotent(t *testing.T) {
	cl := connect(t, startDaemons(t, 2))
	cl.Close()
	cl.Close()
	if _, err := cl.Run(netrun.JobSpec{Bench: "crc32", Cores: 5}); err == nil {
		t.Fatal("Run on a closed cluster succeeded")
	}
}
