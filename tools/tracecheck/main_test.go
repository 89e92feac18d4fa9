package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/platform"
	"dsmtx/internal/trace"
	"dsmtx/internal/workloads"
)

// realTrace produces a Chrome trace from a misspeculating vtime run
// (197.parser at rate 0.05), so the checker sees the recovery phases
// alongside the ordinary execution spans.
func realTrace(t *testing.T) []byte {
	t.Helper()
	b, err := workloads.ByName("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	in := workloads.DefaultInput()
	in.MisspecRate = 0.05
	res, err := workloads.RunParallel(b, in, workloads.DSMTX, 5,
		func(cfg *core.Config) { cfg.Tracer = tr })
	if err != nil {
		t.Fatal(err)
	}
	if res.Misspecs == 0 {
		t.Fatal("no misspeculation; want a run that recovers")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckAcceptsRealMisspecTrace(t *testing.T) {
	data := realTrace(t)
	summary, err := check(data)
	if err != nil {
		t.Fatalf("check rejected a tracer-produced file: %v", err)
	}
	if !strings.Contains(summary, "spans") {
		t.Fatalf("summary: %q", summary)
	}
}

// stepClock is a wall clock that advances one nanosecond per reading.
type stepClock struct{ t platform.Time }

func (c *stepClock) Now() platform.Time { c.t++; return c.t }

// TestCheckRejectsDroppedSpans: a wall-clock track that overflows its
// buffer loses events; the exported file must say so and check must refuse
// it, naming the count.
func TestCheckRejectsDroppedSpans(t *testing.T) {
	tr := trace.New()
	clk := &stepClock{}
	tr.BindWall(clk, 2)
	tr.SetTrack(0, 0, "worker0")
	for range 5 {
		tr.Span(trace.SpanSubTX, 0, clk.Now(), 0, 0, 0)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := check(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "3 events dropped") {
		t.Fatalf("check(%s) = %v, want the 3 dropped events named", buf.Bytes(), err)
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

// TestCheckRejectsCommitOrderFixtures: three hand-edited cuts of a
// recovering 197.parser vtime trace's commit track — one commit dropped,
// one duplicated, two swapped. Each is a well-formed trace; each breaks the
// predefined commit order.
func TestCheckRejectsCommitOrderFixtures(t *testing.T) {
	for _, name := range []string{"commit_dropped.json", "commit_duplicated.json", "commit_swapped.json"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := check(data); err == nil || !strings.Contains(err.Error(), "commit order") {
			t.Errorf("%s: err = %v, want a commit-order error", name, err)
		}
	}
}

// TestCheckCommitOrderRules: commit and recovery.SEQ spans on the commit
// track count up from MTX 0 together; MTX 0 after a higher MTX starts the
// next chained invocation; other tracks are not held to the order.
func TestCheckCommitOrderRules(t *testing.T) {
	const meta = `{"name":"thread_name","ph":"M","pid":0,"tid":4,"args":{"name":"commit"}},
		{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"worker0"}}`
	span := func(name string, mtx int) string {
		return fmt.Sprintf(`,{"name":%q,"ph":"X","pid":0,"tid":4,"ts":%d,"dur":1,"args":{"mtx":%d}}`, name, mtx, mtx)
	}
	commits := func(mtxs ...int) string {
		s := ""
		for _, m := range mtxs {
			s += span("commit", m)
		}
		return s
	}
	cases := []struct {
		name, events, want string // want: error substring; empty = must pass
	}{
		{"ascending", commits(0, 1, 2, 3), ""},
		{"SEQ finishes a recovered MTX", commits(0, 1) + span("recovery.SEQ", 2) + commits(3), ""},
		{"chained invocations", commits(0, 1, 2, 0, 1, 2, 3, 0), ""},
		{"zero-length commit exported as an instant", commits(0) +
			`,{"name":"commit","ph":"i","s":"t","pid":0,"tid":4,"ts":5,"args":{"mtx":2}}`, "finishes MTX 2, want MTX 1"},
		{"skipped MTX", commits(0, 2), "finishes MTX 2, want MTX 1"},
		{"SEQ and commit of one MTX", commits(0, 1) + span("recovery.SEQ", 1), "finishes MTX 1, want MTX 2"},
		{"repeated MTX 0", commits(0, 0), "finishes MTX 0, want MTX 1"},
		{"not from MTX 0", commits(1, 2), "finishes MTX 1, want MTX 0"},
		{"other tracks unordered", commits(0, 1) +
			`,{"name":"commit","ph":"X","pid":0,"tid":0,"ts":0,"dur":1,"args":{"mtx":7}}`, ""},
		{"no mtx arg", `,{"name":"commit","ph":"X","pid":0,"tid":4,"ts":0,"dur":1}`, "no mtx arg"},
	}
	for _, tc := range cases {
		_, err := check([]byte(`{"traceEvents":[` + meta + tc.events + `]}`))
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckRejectsCommitBeforeVerdict: a hand-edited cut of a recovering
// 197.parser vtime trace's trycommit0 and commit tracks (MTXs 0–10), whose
// commit of MTX 0 was moved to start before its validate ends. It keeps the
// commit order, so only the verdict rule refuses it.
func TestCheckRejectsCommitBeforeVerdict(t *testing.T) {
	data, err := os.ReadFile("testdata/commit_before_verdict.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := check(data); err == nil || !strings.Contains(err.Error(), "the commit of MTX 0 (invocation 0) starts at 344000 ns, before any validate of it with ok=1 ends") {
		t.Errorf("err = %v, want the early commit of MTX 0 named", err)
	}
}

// TestCheckVerdictRules: with a trycommit0 track present, each commit of
// MTX i must start at or after the end of an ok=1 validate of i in the same
// chained invocation; a recovered MTX (recovery.SEQ) needs none.
func TestCheckVerdictRules(t *testing.T) {
	const meta = `{"name":"thread_name","ph":"M","pid":0,"tid":4,"args":{"name":"commit"}},
		{"name":"thread_name","ph":"M","pid":0,"tid":3,"args":{"name":"trycommit0"}}`
	// validate: [ts, ts+dur) on trycommit0; commit and SEQ start at ts.
	validate := func(mtx, ok, ts, dur int) string {
		return fmt.Sprintf(`,{"name":"validate","ph":"X","pid":0,"tid":3,"ts":%d,"dur":%d,"args":{"mtx":%d,"ok":%d}}`, ts, dur, mtx, ok)
	}
	on4 := func(name string, mtx, ts int) string {
		return fmt.Sprintf(`,{"name":%q,"ph":"X","pid":0,"tid":4,"ts":%d,"dur":1,"args":{"mtx":%d}}`, name, ts, mtx)
	}
	cases := []struct {
		name, events, want string // want: error substring; empty = must pass
	}{
		{"commit after verdict", validate(0, 1, 0, 2) + validate(1, 1, 2, 2) + on4("commit", 0, 2) + on4("commit", 1, 4), ""},
		{"commit before verdict ends", validate(0, 1, 0, 2) + on4("commit", 0, 1), "commit of MTX 0 (invocation 0) starts at 1000 ns, before any validate"},
		{"refused MTX recovered", validate(0, 1, 0, 1) + validate(1, 0, 1, 1) + on4("commit", 0, 1) + on4("recovery.SEQ", 1, 2), ""},
		{"refused MTX committed", validate(0, 0, 0, 1) + on4("commit", 0, 1), "commit of MTX 0 (invocation 0) starts at 1000 ns, before any validate"},
		{"revalidated after recovery", validate(0, 1, 0, 1) + validate(1, 0, 1, 1) + validate(2, 1, 2, 1) +
			on4("commit", 0, 1) + on4("recovery.SEQ", 1, 3) + validate(2, 1, 4, 1) + on4("commit", 2, 5), ""},
		{"chained invocations", validate(0, 1, 0, 1) + validate(1, 1, 1, 1) + on4("commit", 0, 1) + on4("commit", 1, 2) +
			validate(0, 1, 5, 1) + validate(1, 1, 6, 1) + on4("commit", 0, 6) + on4("commit", 1, 7), ""},
		{"verdict from the last invocation", validate(0, 1, 0, 1) + validate(1, 1, 1, 1) + on4("commit", 0, 1) + on4("commit", 1, 2) +
			validate(0, 1, 5, 1) + on4("commit", 0, 6) + on4("commit", 1, 7), "commit of MTX 1 (invocation 1) starts at 7000 ns, before any validate"},
		{"zero-length validate exported as an instant", validate(0, 1, 0, 1) +
			`,{"name":"validate","ph":"i","s":"t","pid":0,"tid":3,"ts":3,"args":{"mtx":1,"ok":1}}` + on4("commit", 0, 1) + on4("commit", 1, 3), ""},
	}
	for _, tc := range cases {
		_, err := check([]byte(`{"traceEvents":[` + meta + tc.events + `]}`))
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckRejectsSEQWithoutCause: a hand-edited cut of a recovering
// 197.parser vtime trace's trycommit0 and commit tracks (MTXs 0–10), whose
// one ok=0 validate, of MTX 3, was flipped to ok=1. Commit order and every
// verdict still hold, so only the cause rule refuses its recovery.SEQ of 3.
func TestCheckRejectsSEQWithoutCause(t *testing.T) {
	data, err := os.ReadFile("testdata/seq_without_cause.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := check(data); err == nil || !strings.Contains(err.Error(), "cause: the recovery.SEQ of MTX 3 starts at 426321 ns") {
		t.Errorf("err = %v, want the causeless SEQ of MTX 3 named", err)
	}
}

// TestCheckSEQCauseRules: with a trycommit0 track present, each
// recovery.SEQ of MTX i needs a misspec instant of i on any track or an ok=0
// validate of i, starting no later than the SEQ and after the previous
// chained invocation's last commit-order span.
func TestCheckSEQCauseRules(t *testing.T) {
	const meta = `{"name":"thread_name","ph":"M","pid":0,"tid":4,"args":{"name":"commit"}},
		{"name":"thread_name","ph":"M","pid":0,"tid":3,"args":{"name":"trycommit0"}},
		{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"worker0"}},
		{"name":"validate","ph":"X","pid":0,"tid":3,"ts":0,"dur":0,"args":{"mtx":9,"ok":1}}`
	on4 := func(name string, mtx, ts int) string {
		return fmt.Sprintf(`,{"name":%q,"ph":"X","pid":0,"tid":4,"ts":%d,"dur":1,"args":{"mtx":%d}}`, name, ts, mtx)
	}
	misspec := func(mtx, ts int) string {
		return fmt.Sprintf(`,{"name":"misspec","ph":"i","s":"t","pid":0,"tid":0,"ts":%d,"args":{"mtx":%d}}`, ts, mtx)
	}
	refused := func(mtx, ts int) string {
		return fmt.Sprintf(`,{"name":"validate","ph":"X","pid":0,"tid":3,"ts":%d,"dur":1,"args":{"mtx":%d,"ok":0}}`, ts, mtx)
	}
	cases := []struct {
		name, events, want string // want: error substring; empty = must pass
	}{
		{"worker marker", misspec(0, 0) + on4("recovery.SEQ", 0, 2), ""},
		{"refused verdict", refused(0, 0) + on4("recovery.SEQ", 0, 2), ""},
		{"no cause", on4("recovery.SEQ", 0, 2), "recovery.SEQ of MTX 0 starts at 2000 ns with no misspec"},
		{"another MTX's verdict", refused(1, 0) + on4("recovery.SEQ", 0, 2), "recovery.SEQ of MTX 0"},
		{"marker after the SEQ", on4("recovery.SEQ", 0, 2) + misspec(0, 3), "recovery.SEQ of MTX 0"},
		{"marker from the last invocation", misspec(0, 0) + misspec(1, 0) + on4("recovery.SEQ", 0, 1) + on4("recovery.SEQ", 1, 2) +
			on4("recovery.SEQ", 0, 5) + on4("recovery.SEQ", 1, 6), "recovery.SEQ of MTX 0 starts at 5000 ns"},
		{"marker in its own invocation", misspec(0, 0) + on4("recovery.SEQ", 0, 1) + misspec(1, 1) +
			on4("recovery.SEQ", 1, 2) + misspec(0, 4) + on4("recovery.SEQ", 0, 5) + misspec(1, 5) + on4("recovery.SEQ", 1, 6), ""},
	}
	for _, tc := range cases {
		_, err := check([]byte(`{"traceEvents":[` + meta + tc.events + `]}`))
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
