package workloads

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/faults"
	"dsmtx/internal/sim"
	"dsmtx/internal/trace"
)

// faultRun executes crc32 at 16 cores under the given fault plan, with an
// optional tracer, and returns the result (plus the Chrome trace bytes when
// traced).
func faultRun(t *testing.T, in Input, plan *faults.Plan, tr *trace.Tracer) (Result, []byte) {
	t.Helper()
	b, err := ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunParallel(b, in, DSMTX, 16, func(cfg *core.Config) {
		cfg.Faults = plan
		cfg.Tracer = tr
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		return res, nil
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestEmptyFaultPlanIsByteIdentical pins the zero-cost-when-off contract: a
// non-nil but empty plan must leave every virtual-time outcome identical to
// a nil plan — no reliable-layer state, no heartbeats, no extra events.
func TestEmptyFaultPlanIsByteIdentical(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.02}
	withNil, _ := faultRun(t, in, nil, nil)
	withEmpty, _ := faultRun(t, in, &faults.Plan{}, nil)
	if !reflect.DeepEqual(withNil, withEmpty) {
		t.Fatalf("empty plan perturbed the run:\n nil   %+v\n empty %+v", withNil, withEmpty)
	}
}

// TestFaultedRunsBitIdentical extends the repeat-run determinism pin to a
// lossy interconnect: identical fault seeds must reproduce every Result
// field — including the drop/retransmission counters — across repeated and
// concurrent runs.
func TestFaultedRunsBitIdentical(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.001}
	plan := &faults.Plan{
		Seed: 9, DropRate: 0.002, AckDropRate: 0.002,
		SpikeRate: 0.01, SpikeExtra: 20 * sim.Microsecond,
	}
	base, _ := faultRun(t, in, plan, nil)
	if base.Traffic.RetransMessages == 0 {
		t.Fatal("plan never forced a retransmission; raise the drop rate")
	}
	again, _ := faultRun(t, in, plan, nil)
	if !reflect.DeepEqual(again, base) {
		t.Fatalf("repeat faulted run differs:\n got %+v\nwant %+v", again, base)
	}
	results := make([]Result, 3)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _ = faultRun(t, in, plan, nil)
		}()
	}
	wg.Wait()
	for i, got := range results {
		if !reflect.DeepEqual(got, base) {
			t.Errorf("concurrent faulted run %d differs:\n got %+v\nwant %+v", i, got, base)
		}
	}
}

// TestCrashSurvivalMatchesSequential injects a mid-run worker crash (the
// crash instant is derived from a clean run's elapsed time, so the test
// self-scales) and requires the run to complete with the sequential
// reference checksum, a recorded crash, and re-dispatch time attributed in
// the stall table's crashed column.
func TestCrashSurvivalMatchesSequential(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.001}
	clean, _ := faultRun(t, in, nil, nil)
	b, err := ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	_, wantSum, err := RunSequentialRef(b, in)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Checksum != wantSum {
		t.Fatalf("clean run checksum %#x != sequential %#x", clean.Checksum, wantSum)
	}
	plan := &faults.Plan{
		Crashes: []faults.Crash{
			{Rank: 1, At: clean.Elapsed / 2, Downtime: 100 * sim.Microsecond},
		},
	}
	res, _ := faultRun(t, in, plan, trace.New())
	if res.Crashes == 0 {
		t.Fatal("scheduled crash never fired")
	}
	if res.Redispatch <= 0 {
		t.Fatal("crash recovery accounted no re-dispatch time")
	}
	if res.Checksum != wantSum {
		t.Fatalf("crashed run checksum %#x != sequential %#x", res.Checksum, wantSum)
	}
	if res.Elapsed <= clean.Elapsed {
		t.Fatalf("crash was free: %v with crash vs %v clean", res.Elapsed, clean.Elapsed)
	}
	var crashed sim.Time
	for _, row := range res.Stalls.Rows {
		crashed += row.Crashed
	}
	if crashed <= 0 {
		t.Fatal("stall attribution has no time in the crashed column")
	}
}

// TestVTimeStallTableAccountsWindows pins the recovery and crash windows of
// the vtime stall table: 197.parser at rate 0.05 recovers often, and a
// worker crash adds a re-dispatch. No cell may be negative, no rank may
// account for more than the run, the commit row's crashed column is the
// re-dispatch total and its recovery column covers ERM+FLQ+SEQ, and the
// crashed worker's own crash window is charged.
func TestVTimeStallTableAccountsWindows(t *testing.T) {
	b, err := ByName("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.05}
	run := func(plan *faults.Plan) Result {
		t.Helper()
		res, err := RunParallel(b, in, DSMTX, 5, func(cfg *core.Config) {
			cfg.Faults = plan
			cfg.Tracer = trace.NewMetricsOnly()
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const crashRank = 1
	clean := run(nil)
	res := run(&faults.Plan{Crashes: []faults.Crash{
		{Rank: crashRank, At: clean.Elapsed / 2, Downtime: 100 * sim.Microsecond},
	}})
	if res.Crashes == 0 || res.Misspecs == 0 {
		t.Fatalf("%d crashes, %d misspeculations; want a run that does both", res.Crashes, res.Misspecs)
	}
	var commit, crashed *trace.StallRow
	for i := range res.Stalls.Rows {
		r := &res.Stalls.Rows[i]
		for _, cell := range []sim.Time{r.Busy, r.Backpressure, r.Starvation, r.VerdictWait, r.VoteWait, r.Recovery, r.Crashed, r.Blocked} {
			if cell < 0 {
				t.Errorf("%s: negative cell in %+v", r.Label, *r)
				break
			}
		}
		if r.Total() > res.Elapsed {
			t.Errorf("%s: accounts for %v of a %v run", r.Label, r.Total(), res.Elapsed)
		}
		switch {
		case r.Label == "commit":
			commit = r
		case r.Track == crashRank && r.Stage != "pagesrv":
			crashed = r
		}
	}
	if commit == nil || crashed == nil {
		t.Fatalf("stall table lacks the commit or the crashed worker's row: %+v", res.Stalls.Rows)
	}
	if commit.Crashed != res.Redispatch {
		t.Errorf("commit crashed column %v, re-dispatch total %v", commit.Crashed, res.Redispatch)
	}
	if phases := res.ERM + res.FLQ + res.SEQ; commit.Recovery < phases {
		t.Errorf("commit recovery column %v < ERM+FLQ+SEQ %v", commit.Recovery, phases)
	}
	if crashed.Crashed <= 0 {
		t.Errorf("crashed worker %s has no crash window: %+v", crashed.Label, *crashed)
	}
}

// TestCrashedRunsBitIdentical: the full crash/rejoin/re-dispatch path must
// itself be deterministic, down to the exported trace bytes.
func TestCrashedRunsBitIdentical(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.001}
	clean, _ := faultRun(t, in, nil, nil)
	plan := &faults.Plan{
		Seed: 3, DropRate: 0.001, AckDropRate: 0.001,
		Crashes: []faults.Crash{
			{Rank: 2, At: clean.Elapsed / 3, Downtime: 50 * sim.Microsecond},
		},
	}
	res1, trace1 := faultRun(t, in, plan, trace.New())
	res2, trace2 := faultRun(t, in, plan, trace.New())
	if res1.Crashes == 0 {
		t.Fatal("scheduled crash never fired")
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("crashed-run traces differ: %d vs %d bytes", len(trace1), len(trace2))
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("crashed runs differ:\n got %+v\nwant %+v", res2, res1)
	}
}

// TestStragglerSlowsRunButPreservesResult: a straggler window dilates one
// rank's compute; the run must finish later than the clean run with the
// same commits and checksum.
func TestStragglerSlowsRunButPreservesResult(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.001}
	clean, _ := faultRun(t, in, nil, nil)
	plan := &faults.Plan{
		Stragglers: []faults.Straggler{
			{Rank: 1, From: 0, Dur: clean.Elapsed, Factor: 4},
		},
	}
	slow, _ := faultRun(t, in, plan, nil)
	if slow.Elapsed <= clean.Elapsed {
		t.Fatalf("straggler was free: %v vs clean %v", slow.Elapsed, clean.Elapsed)
	}
	if slow.Checksum != clean.Checksum || slow.Committed != clean.Committed {
		t.Fatalf("straggler changed the computation: %+v vs %+v", slow, clean)
	}
}
