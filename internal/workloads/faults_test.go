package workloads

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/faults"
	"dsmtx/internal/platform"
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
// a nil plan — no injector, no extra events.
func TestEmptyFaultPlanIsByteIdentical(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.02}
	withNil, _ := faultRun(t, in, nil, nil)
	withEmpty, _ := faultRun(t, in, &faults.Plan{}, nil)
	if !reflect.DeepEqual(withNil, withEmpty) {
		t.Fatalf("empty plan perturbed the run:\n nil   %+v\n empty %+v", withNil, withEmpty)
	}
}

// delayPlan spikes 1% of inter-node messages, doubles link latency over
// the middle third of a clean run and halves rank 2's speed over the same
// window: every fault kind the plan grammar has.
func delayPlan(seed uint64, clean platform.Duration) *faults.Plan {
	from, dur := platform.Time(clean/3), clean/3
	return &faults.Plan{
		Seed: seed, SpikeRate: 0.01, SpikeExtra: 20 * platform.Microsecond,
		Degrades:   []faults.Degrade{{From: from, Dur: dur, Factor: 2}},
		Stragglers: []faults.Straggler{{Rank: 2, From: from, Dur: dur, Factor: 2}},
	}
}

// TestFaultedRunsBitIdentical extends the repeat-run determinism pin to a
// faulted interconnect: identical fault seeds must reproduce every Result
// field across repeated and concurrent runs.
func TestFaultedRunsBitIdentical(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.001}
	clean, _ := faultRun(t, in, nil, nil)
	plan := delayPlan(9, clean.Elapsed)
	base, _ := faultRun(t, in, plan, nil)
	if base.Elapsed == clean.Elapsed {
		t.Fatal("plan never engaged: elapsed equals the clean run's")
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

// TestVTimeStallTableAccountsWindows pins the recovery windows of the vtime
// stall table: 197.parser at rate 0.05 recovers often. No cell may be
// negative, no rank may account for more than the run, the commit row's
// recovery column covers ERM+FLQ+SEQ, and every worker, which joins each
// recovery's barriers, has a recovery window charged.
func TestVTimeStallTableAccountsWindows(t *testing.T) {
	b, err := ByName("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.05}
	res, err := RunParallel(b, in, DSMTX, 5, func(cfg *core.Config) {
		cfg.Tracer = trace.NewMetricsOnly()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misspecs == 0 {
		t.Fatal("no misspeculation; want a run that recovers")
	}
	var commit *trace.StallRow
	workers := 0
	for i := range res.Stalls.Rows {
		r := &res.Stalls.Rows[i]
		for _, cell := range []platform.Time{r.Busy, r.Backpressure, r.Starvation, r.VerdictWait, r.VoteWait, r.Recovery, r.Blocked} {
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
		case strings.HasPrefix(r.Label, "worker"):
			workers++
			if r.Recovery <= 0 {
				t.Errorf("worker %s has no recovery window: %+v", r.Label, *r)
			}
		}
	}
	if commit == nil || workers == 0 {
		t.Fatalf("stall table lacks the commit or a worker row: %+v", res.Stalls.Rows)
	}
	if phases := res.ERM + res.FLQ + res.SEQ; commit.Recovery < phases {
		t.Errorf("commit recovery column %v < ERM+FLQ+SEQ %v", commit.Recovery, phases)
	}
}

// TestFaultedTracesBitIdentical: a faulted run must be deterministic down to
// the exported trace bytes — spikes, a degraded link and a straggler window
// included.
func TestFaultedTracesBitIdentical(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.001}
	clean, _ := faultRun(t, in, nil, nil)
	plan := delayPlan(3, clean.Elapsed)
	res1, trace1 := faultRun(t, in, plan, trace.New())
	res2, trace2 := faultRun(t, in, plan, trace.New())
	if res1.Elapsed == clean.Elapsed {
		t.Fatal("plan never engaged: elapsed equals the clean run's")
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("faulted-run traces differ: %d vs %d bytes", len(trace1), len(trace2))
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("faulted runs differ:\n got %+v\nwant %+v", res2, res1)
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
