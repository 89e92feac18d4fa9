package netrun_test

import (
	"encoding/json"
	"errors"
	"io"
	gonet "net"
	"strings"
	"sync"
	"testing"
	"time"

	"dsmtx/internal/job"
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

// checkJob runs spec on cl and requires the sequential checksum, vtime's
// committed/misspec counts, and a record as complete as any backend's:
// every traffic class counted and, after a misspeculation, all four
// recovery phases timed.
func checkJob(t *testing.T, cl *netrun.Cluster, spec job.Spec) netrun.Result {
	t.Helper()
	spec.Backend = "net"
	spec = spec.Normalized()
	b, err := workloads.ByName(spec.Bench)
	if err != nil {
		t.Fatal(err)
	}
	in, paradigm := spec.Input(), spec.ParsedParadigm()
	_, seqCheck, err := workloads.RunSequentialRef(b, in)
	if err != nil {
		t.Fatal(err)
	}
	vres, err := workloads.RunParallel(b, in, paradigm, spec.Cores, nil)
	if err != nil {
		t.Fatalf("vtime: %v", err)
	}
	nres, err := cl.RunJob(spec)
	if err != nil {
		t.Fatalf("net %+v: %v", spec, err)
	}
	if nres.Checksum != seqCheck {
		t.Errorf("%+v: net checksum %#x != sequential %#x", spec, nres.Checksum, seqCheck)
	}
	if nres.Committed != vres.Committed || nres.Misspecs != vres.Misspecs {
		t.Errorf("%+v: net committed/misspecs %d/%d != vtime %d/%d",
			spec, nres.Committed, nres.Misspecs, vres.Committed, vres.Misspecs)
	}
	if nres.Daemons != 2 || nres.Elapsed <= 0 { // every fleet checkJob runs on has two daemons
		t.Errorf("%+v: daemons %d, elapsed %v", spec, nres.Daemons, nres.Elapsed)
	}
	// Stage bodies run on whichever daemon hosts the worker; the fold must
	// reach at least one per stage of every MTX the pipeline committed.
	if stages := uint64(len(workloads.NewChain(b, in).Plan(paradigm).Stages)); nres.SubTXs < stages*(nres.Committed-nres.Misspecs) {
		t.Errorf("%+v: %d subTXs for %d committed MTXs of %d stages", spec, nres.SubTXs, nres.Committed, stages)
	}
	if tr := nres.Traffic; tr.QueueMessages == 0 || tr.PageMessages == 0 || tr.ControlMessages == 0 ||
		tr.QueueMessages+tr.PageMessages+tr.ControlMessages != tr.Messages {
		t.Errorf("%+v: traffic classes %+v", spec, tr)
	}
	if nres.Misspecs > 0 && (nres.ERM <= 0 || nres.FLQ <= 0 || nres.SEQ <= 0 || nres.RFP <= 0) {
		t.Errorf("%+v: %d misspeculations but recovery ERM %v FLQ %v SEQ %v RFP %v",
			spec, nres.Misspecs, nres.ERM, nres.FLQ, nres.SEQ, nres.RFP)
	}
	// Every cross-daemon message is one frame sent and one admitted, on a
	// link that never dropped. (Bytes may trail: a daemon can report while
	// its writer still has the last frames queued.)
	if m := nres.Mesh; m.FramesOut == 0 || m.FramesOut != m.FramesIn || m.BytesIn == 0 || m.Reconnects != 0 || m.DupsDropped != 0 {
		t.Errorf("%+v: mesh counters %+v", spec, m)
	}
	return nres
}

// TestConnectRunsSuccessiveJobs: one control session serves job after job.
// Each job differs from the one before — input or benchmark — so a mesh or
// image left over would show up as a wrong checksum or count.
func TestConnectRunsSuccessiveJobs(t *testing.T) {
	cl := connect(t, startDaemons(t, 2))
	checkJob(t, cl, job.Spec{Bench: "crc32", Seed: 42, Rate: 0.02, Cores: 5})
	checkJob(t, cl, job.Spec{Bench: "crc32", Seed: 7, Cores: 5})
	// The daemons run the paradigm the spec names.
	checkJob(t, cl, job.Spec{Bench: "crc32", Paradigm: "TLS", Seed: 42, Rate: 0.02, Cores: 5})

	// The one benchmark that chains invocations: each epoch runs on a fresh
	// mesh generation over the image the commit daemon kept from the last.
	alvinn := job.Spec{Bench: "052.alvinn", Seed: 42, Cores: 6}
	checkJob(t, cl, alvinn)

	// Recovery: the commit daemon's breakdown is the job's. The first stage
	// and the commit unit that reports to it run in different processes here,
	// and the run-ahead bound must hold all the same, in every epoch: the
	// waste inequality of workloads' TestBoundedRunAheadWaste (floor 32,
	// misspecs + 1 epochs). The stale page lists cross daemons too.
	rec := checkJob(t, cl, job.Spec{Bench: "197.parser", Seed: 42, Rate: 0.05, Cores: 5})
	if rec.Misspecs != 20 || rec.Committed != 800 {
		t.Errorf("197.parser at rate 0.05: %d misspeculations, %d committed, want 20 and 800", rec.Misspecs, rec.Committed)
	}
	if limit := 3 * (2*rec.Committed + 32*(rec.Misspecs+1)); rec.SubTXs > limit {
		t.Errorf("197.parser at rate 0.05: %d subTXs executed, want <= %d", rec.SubTXs, limit)
	}
	// Live recovery re-arms only the pages that changed, so the job refetches
	// little: ≈ 236 Copy-On-Access messages (requests and replies), against
	// ≈ 1,580 when every recovery dropped every page.
	if pages := rec.Traffic.PageMessages; pages > 600 {
		t.Errorf("197.parser at rate 0.05: %d page messages, want <= 600", pages)
	}
}

// TestRunRejectsCoordinatorSide: a spec the coordinator can refuse on its
// own fails without a frame reaching any daemon, so the session stays in
// step and the next job runs.
func TestRunRejectsCoordinatorSide(t *testing.T) {
	cl := connect(t, startDaemons(t, 2))
	if _, err := cl.RunJob(job.Spec{Bench: "no-such-bench", Backend: "net", Cores: 5}); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("unknown bench: err = %v", err)
	}
	if _, err := cl.RunJob(job.Spec{Bench: "crc32", Backend: "net", Cores: 1}); err == nil {
		t.Fatal("1 core: accepted a job the plan cannot place")
	}
	if _, err := cl.RunJob(job.Spec{Bench: "crc32", Cores: 5}); !errors.Is(err, netrun.ErrRejected) || !strings.Contains(err.Error(), "vtime job cannot run on a net fleet") {
		t.Fatalf("vtime spec: err = %v", err)
	}
	checkJob(t, cl, job.Spec{Bench: "crc32", Seed: 42, Cores: 5})

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
	if _, err := wide.RunJob(job.Spec{Bench: "crc32", Backend: "net", Cores: 4}); err == nil || !strings.Contains(err.Error(), "need at least one rank per daemon") {
		t.Errorf("4 cores on 5 daemons: err = %v", err)
	}
	if _, err := wide.RunJob(job.Spec{Bench: "no-such-bench", Backend: "net", Cores: 8}); err == nil {
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

// TestDaemonRefusesUnrunnableSpec: a control session that skips the
// coordinator's check and sends a spec no daemon can run (an unknown knob)
// gets a FrameError naming it, not a panic.
func TestDaemonRefusesUnrunnableSpec(t *testing.T) {
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	stop, exit := make(chan struct{}), make(chan int, 1)
	go func() { exit <- netrun.ServeLoop(ln, stop) }()
	defer func() { close(stop); <-exit }()

	conn, err := gonet.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"JobID":1,"Self":0,"Addrs":["` + addr + `"],"Spec":{"kind":"parallel","bench":"crc32",` +
		`"paradigm":"DSMTX","backend":"net","cores":5,"scale":1,"knob":"warp-drive"}}`
	conn.Write(wire.AppendHello(nil, wire.Hello{Role: wire.RoleControl, JobID: 1}))
	conn.Write(wire.AppendFrame(nil, wire.FrameJob, []byte(body)))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, reply, _, err := wire.ReadFrame(conn, nil)
	var e struct{ Error string }
	if err != nil || typ != wire.FrameError || json.Unmarshal(reply, &e) != nil || !strings.Contains(e.Error, `unknown config knob "warp-drive"`) {
		t.Fatalf("reply: frame %d %q, err %v; want a FrameError naming the knob", typ, reply, err)
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
	if _, err := cl.RunJob(job.Spec{Bench: "crc32", Backend: "net", Cores: 5}); err == nil {
		t.Fatal("Run on a closed cluster succeeded")
	}
}
