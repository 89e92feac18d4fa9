package workloads

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/trace"
)

// traceRun executes one benchmark configuration with a fresh tracer and
// returns the run result plus the exported Chrome trace bytes.
func traceRun(t *testing.T, name string, cores int, in Input, tr *trace.Tracer) (Result, []byte) {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var tune func(*core.Config)
	if tr != nil {
		tune = func(cfg *core.Config) { cfg.Tracer = tr }
	}
	res, err := RunParallel(b, in, DSMTX, cores, tune)
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

// TestChromeTraceDeterministic is the golden determinism test: two runs of
// the same configuration from the same seed must export byte-identical
// Chrome traces. The input includes misspeculation so recovery spans (ERM,
// FLQ, SEQ, RFP) are part of the comparison, not just the steady state.
func TestChromeTraceDeterministic(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.02}
	res1, trace1 := traceRun(t, "crc32", 16, in, trace.New())
	res2, trace2 := traceRun(t, "crc32", 16, in, trace.New())
	if res1.Misspecs == 0 {
		t.Fatal("want misspeculations so recovery spans are exercised")
	}
	if len(trace1) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("trace bytes differ between identical runs: %d vs %d bytes", len(trace1), len(trace2))
	}
	if res1.Elapsed != res2.Elapsed || res1.Checksum != res2.Checksum {
		t.Fatalf("results differ between identical runs: %+v vs %+v", res1, res2)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace1, &parsed); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("exported trace holds no events")
	}
}

// TestRepeatRunsBitIdentical pins in-process run-to-run determinism on a
// wide configuration: 256.bzip2 at 96 cores has a ~90-worker DOALL stage,
// so any iteration-order nondeterminism in a broadcast (e.g. ranging over
// the per-stage port map when emitting terminate markers, which once
// permuted NIC serialization order run to run) shifts arrival times and
// shows up in Events and the recovery totals. Every Result field must be
// identical, not just the rendered ones.
func TestRepeatRunsBitIdentical(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.001}
	base, _ := traceRun(t, "256.bzip2", 96, in, nil)
	if base.Misspecs == 0 {
		t.Fatal("want misspeculations so the recovery path is exercised")
	}
	again, _ := traceRun(t, "256.bzip2", 96, in, nil)
	if !reflect.DeepEqual(again, base) {
		t.Fatalf("repeat run differs:\n got %+v\nwant %+v", again, base)
	}
}

// TestConcurrentRunsBitIdentical is the host-parallel variant: simulations
// running concurrently on the host (as the experiment scheduler does) must
// not perturb each other — each kernel's outcome is a pure function of its
// configuration. Under -race this doubles as the scheduler's race smoke.
func TestConcurrentRunsBitIdentical(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.001}
	base, _ := traceRun(t, "256.bzip2", 96, in, nil)
	names := []string{"164.gzip", "130.li", "256.bzip2"}
	results := make([]Result, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(2)
		go func() {
			defer wg.Done()
			b, err := ByName(name)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := RunParallel(b, DefaultInput(), DSMTX, 32, nil); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			results[i], _ = traceRun(t, "256.bzip2", 96, in, nil)
		}()
	}
	wg.Wait()
	for i, got := range results {
		if !reflect.DeepEqual(got, base) {
			t.Errorf("run concurrent with %s differs:\n got %+v\nwant %+v", names[i], got, base)
		}
	}
}

// TestTracingDoesNotPerturbVirtualTime pins the binding invariant of the
// observability layer: attaching a tracer must not alter any virtual-time
// outcome. Every figure-relevant field of the result — elapsed time,
// commits, misspeculations, recovery phase totals, wire traffic — must be
// bit-identical with tracing on and off.
func TestTracingDoesNotPerturbVirtualTime(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.02}
	plain, _ := traceRun(t, "crc32", 16, in, nil)
	traced, _ := traceRun(t, "crc32", 16, in, trace.New())
	if plain.Elapsed != traced.Elapsed {
		t.Errorf("Elapsed: %v untraced vs %v traced", plain.Elapsed, traced.Elapsed)
	}
	if plain.Checksum != traced.Checksum {
		t.Errorf("Checksum: %#x untraced vs %#x traced", plain.Checksum, traced.Checksum)
	}
	if plain.Committed != traced.Committed || plain.Misspecs != traced.Misspecs {
		t.Errorf("commits: %d/%d untraced vs %d/%d traced",
			plain.Committed, plain.Misspecs, traced.Committed, traced.Misspecs)
	}
	if plain.ERM != traced.ERM || plain.FLQ != traced.FLQ || plain.SEQ != traced.SEQ || plain.RFP != traced.RFP {
		t.Errorf("recovery phases differ: ERM %v/%v FLQ %v/%v SEQ %v/%v RFP %v/%v",
			plain.ERM, traced.ERM, plain.FLQ, traced.FLQ,
			plain.SEQ, traced.SEQ, plain.RFP, traced.RFP)
	}
	if plain.Traffic != traced.Traffic {
		t.Errorf("traffic differs: %+v untraced vs %+v traced", plain.Traffic, traced.Traffic)
	}
	// Per-class sums must reproduce the totals bit-identically.
	tr := traced.Traffic
	if tr.QueueBytes+tr.PageBytes+tr.ControlBytes != tr.Bytes {
		t.Errorf("class bytes %d+%d+%d do not sum to total %d",
			tr.QueueBytes, tr.PageBytes, tr.ControlBytes, tr.Bytes)
	}
	if tr.QueueMessages+tr.PageMessages+tr.ControlMessages != tr.Messages {
		t.Errorf("class messages %d+%d+%d do not sum to total %d",
			tr.QueueMessages, tr.PageMessages, tr.ControlMessages, tr.Messages)
	}
}
