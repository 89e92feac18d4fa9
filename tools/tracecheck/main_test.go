package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/faults"
	"dsmtx/internal/sim"
	"dsmtx/internal/trace"
	"dsmtx/internal/workloads"
)

// realTrace produces a Chrome trace from a faulted run (a straggler and
// latency spikes), so the checker sees a stretched schedule alongside the
// ordinary execution spans.
func realTrace(t *testing.T) []byte {
	t.Helper()
	b, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	plan := faults.Plan{
		Seed: 3, SpikeRate: 0.01, SpikeExtra: 20 * sim.Microsecond,
		Stragglers: []faults.Straggler{{Rank: 1, From: 0, Dur: sim.Millisecond, Factor: 2}},
	}
	if _, err := workloads.RunParallel(b, workloads.DefaultInput(), workloads.DSMTX, 16,
		func(cfg *core.Config) {
			cfg.Tracer = tr
			cfg.Faults = &plan
		}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckAcceptsRealFaultedTrace(t *testing.T) {
	data := realTrace(t)
	summary, err := check(data)
	if err != nil {
		t.Fatalf("check rejected a tracer-produced file: %v", err)
	}
	if !strings.Contains(summary, "spans") {
		t.Fatalf("summary: %q", summary)
	}
}

// hostTrace produces a wall-clock Chrome trace from a live host-backend run.
func hostTrace(t *testing.T) []byte {
	t.Helper()
	b, err := workloads.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	if _, err := workloads.RunParallel(b, workloads.DefaultInput(), workloads.DSMTX, 8,
		func(cfg *core.Config) {
			cfg.Tracer = tr
			cfg.Backend = core.BackendHost
		}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckAcceptsLiveHostTrace(t *testing.T) {
	summary, err := check(hostTrace(t))
	if err != nil {
		t.Fatalf("check rejected a live host trace: %v", err)
	}
	if !strings.Contains(summary, "wall clock") {
		t.Fatalf("summary does not identify the wall clock: %q", summary)
	}
}

// TestCheckAcceptsHostFixture validates the captured host trace committed as
// testdata, pinning the wall-clock file format (clock marker, per-track
// monotone timestamps, host vocabulary) independently of the live runtime.
func TestCheckAcceptsHostFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/host_trace.json")
	if err != nil {
		t.Fatal(err)
	}
	summary, err := check(data)
	if err != nil {
		t.Fatalf("check rejected the host fixture: %v", err)
	}
	if !strings.Contains(summary, "wall clock") {
		t.Fatalf("summary does not identify the wall clock: %q", summary)
	}
	if !bytes.Contains(data, []byte(`"`+trace.SpanPageServe.String()+`"`)) {
		t.Errorf("host fixture missing %q events", trace.SpanPageServe.String())
	}
}

// TestCheckWallClockRules covers the wall-clock extensions as a table: the
// host delivery vocabulary is accepted, per-track timestamp regressions are
// rejected only under "clock":"wall", and unknown clocks fail.
func TestCheckWallClockRules(t *testing.T) {
	const meta = `{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"worker0"}}`
	cases := []struct {
		name string
		data string
		want string // error substring; empty = must pass
	}{
		{"host vocabulary accepted", `{"traceEvents":[` + meta + `,
			{"name":"recv.park","ph":"X","pid":0,"tid":0,"ts":0,"dur":2},
			{"name":"pagesrv.shard","ph":"X","pid":0,"tid":0,"ts":3,"dur":1},
			{"name":"queue.flush","ph":"i","s":"t","pid":0,"tid":0,"ts":5}],
			"clock":"wall"}`, ""},
		{"wall regression rejected", `{"traceEvents":[` + meta + `,
			{"name":"recv.park","ph":"X","pid":0,"tid":0,"ts":9,"dur":1},
			{"name":"recv.park","ph":"X","pid":0,"tid":0,"ts":4,"dur":1}],
			"clock":"wall"}`, "regresses"},
		{"vtime tolerates regression", `{"traceEvents":[` + meta + `,
			{"name":"subTX","ph":"X","pid":0,"tid":0,"ts":9,"dur":1},
			{"name":"subTX","ph":"X","pid":0,"tid":0,"ts":4,"dur":1}]}`, ""},
		{"instant regression rejected", `{"traceEvents":[` + meta + `,
			{"name":"recv.park","ph":"X","pid":0,"tid":0,"ts":9,"dur":1},
			{"name":"queue.flush","ph":"i","s":"t","pid":0,"tid":0,"ts":4}],
			"clock":"wall"}`, "regresses"},
		{"independent tracks may interleave", `{"traceEvents":[` + meta + `,
			{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"worker1"}},
			{"name":"recv.park","ph":"X","pid":0,"tid":0,"ts":9,"dur":1},
			{"name":"recv.park","ph":"X","pid":0,"tid":1,"ts":4,"dur":1}],
			"clock":"wall"}`, ""},
		{"unknown clock rejected", `{"traceEvents":[` + meta + `,
			{"name":"subTX","ph":"X","pid":0,"tid":0,"ts":0,"dur":1}],
			"clock":"tai"}`, "unknown clock"},
	}
	for _, tc := range cases {
		_, err := check([]byte(tc.data))
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// shardTrace produces a trace from a sharded-commit run, so the export
// exercises the cross-shard vocabulary (per-shard commit spans, vote
// instants, vote waits) on either backend. gzip's bulk output regularly
// straddles 64-page owner blocks, so multi-shard MTXs — and hence votes —
// are guaranteed.
func shardTrace(t *testing.T, backend core.Backend) []byte {
	t.Helper()
	b, err := workloads.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	if _, err := workloads.RunParallel(b, workloads.DefaultInput(), workloads.DSMTX, 12,
		func(cfg *core.Config) {
			cfg.Tracer = tr
			cfg.Backend = backend
			cfg.CommitShards = 4
		}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckAcceptsShardedTraces validates real sharded-commit traces on both
// backends: the cross-shard vocabulary passes the name gate (with wall-clock
// monotonicity on the host), and the vote instants actually appear.
func TestCheckAcceptsShardedTraces(t *testing.T) {
	for _, bk := range []struct {
		name    string
		backend core.Backend
	}{{"vtime", core.BackendVTime}, {"host", core.BackendHost}} {
		data := shardTrace(t, bk.backend)
		summary, err := check(data)
		if err != nil {
			t.Fatalf("%s: check rejected a sharded trace: %v", bk.name, err)
		}
		if !strings.Contains(summary, "spans") {
			t.Fatalf("%s: summary: %q", bk.name, summary)
		}
		for _, name := range []string{trace.SpanShardCommit.String(), trace.InstShardVote.String()} {
			if !bytes.Contains(data, []byte(`"`+name+`"`)) {
				t.Errorf("%s: sharded trace missing %q events", bk.name, name)
			}
		}
	}
}

// TestCheckCommitShardVocabulary covers the cross-shard names as a table:
// the published spellings pass (including under wall-clock monotonicity on
// one commit-shard track), and near-miss spellings fail the name gate.
func TestCheckCommitShardVocabulary(t *testing.T) {
	const meta = `{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"commit.shard1"}}`
	cases := []struct {
		name string
		data string
		want string // error substring; empty = must pass
	}{
		{"shard vocabulary accepted", `{"traceEvents":[` + meta + `,
			{"name":"commit.shard","ph":"X","pid":0,"tid":0,"ts":0,"dur":2},
			{"name":"commit.shard.vote","ph":"i","s":"t","pid":0,"tid":0,"ts":3},
			{"name":"commit.shard.votewait","ph":"X","pid":0,"tid":0,"ts":4,"dur":1}],
			"clock":"wall"}`, ""},
		{"shard wall regression rejected", `{"traceEvents":[` + meta + `,
			{"name":"commit.shard","ph":"X","pid":0,"tid":0,"ts":9,"dur":1},
			{"name":"commit.shard.vote","ph":"i","s":"t","pid":0,"tid":0,"ts":4}],
			"clock":"wall"}`, "regresses"},
		{"misspelled shard span rejected", `{"traceEvents":[` + meta + `,
			{"name":"commit.shards","ph":"X","pid":0,"tid":0,"ts":0,"dur":1}]}`,
			"not in the tracer vocabulary"},
		{"misspelled vote instant rejected", `{"traceEvents":[` + meta + `,
			{"name":"commit.shard","ph":"X","pid":0,"tid":0,"ts":0,"dur":1},
			{"name":"commit.shard.votes","ph":"i","s":"t","pid":0,"tid":0,"ts":2}]}`,
			"not in the tracer vocabulary"},
	}
	for _, tc := range cases {
		_, err := check([]byte(tc.data))
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckRejectsMalformedTraces(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"bad json", `{`, "not valid JSON"},
		{"empty", `{"traceEvents":[]}`, "no traceEvents"},
		{"unknown span", `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"worker0"}},
			{"name":"bogus.span","ph":"X","pid":1,"tid":0,"ts":0,"dur":1}]}`,
			"not in the tracer vocabulary"},
		{"unknown metadata", `{"traceEvents":[
			{"name":"bogus_meta","ph":"M","pid":1,"tid":0,"args":{}}]}`,
			"unknown metadata record"},
		{"unnamed thread", `{"traceEvents":[
			{"name":"subTX","ph":"X","pid":1,"tid":7,"ts":0,"dur":1}]}`,
			"no thread_name metadata"},
		{"negative dur", `{"traceEvents":[
			{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"worker0"}},
			{"name":"subTX","ph":"X","pid":1,"tid":0,"ts":0,"dur":-5}]}`,
			"negative ts/dur"},
	}
	for _, tc := range cases {
		if _, err := check([]byte(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
