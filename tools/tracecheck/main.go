// Command tracecheck validates a Chrome trace-event JSON file produced by
// the dsmtx tracer (virtual-time or host wall-clock): well-formed JSON, the
// trace-event fields Perfetto requires, monotone non-negative durations,
// per-rank metadata covering every thread that has events, and event names
// restricted to the tracer's published vocabulary (trace.KnownEventNames) —
// so a renamed or misspelled span fails the build rather than silently
// vanishing from timeline queries. Wall-clock traces (top-level
// "clock":"wall", emitted by host runs) additionally promise per-track
// start-time monotonicity — the exporter sorts each rank's span buffer —
// and tracecheck enforces it. A file whose top-level "dropped" count is
// non-zero lost events to full track buffers; tracecheck refuses it, since
// a timeline with holes reads as idle time that never happened.
//
// One protocol invariant is checked too (paper §4, the predefined commit
// order): on the commit unit's track ("commit"), the commit and
// recovery.SEQ spans together cover MTX 0, 1, 2, ... exactly once each, in
// ascending order — a recovered MTX is re-executed instead of committed. A
// span of MTX 0 after a higher MTX starts the next invocation of a chained
// workload. And when the try-commit unit's track ("trycommit0") has
// validate spans, every commit span of MTX i starts at or after the end of
// a validate span of i with ok=1 there, in the same chained invocation: a
// group commit follows its verdict, and every recovery.SEQ span of MTX i
// starts after a misspec instant or an ok=0 validate of i in its invocation:
// only an MTX that misspeculated is re-executed. CI runs tracecheck over the traces
// scripts/smoke.sh produces (vtime, misspeculating vtime, and wall clock).
//
// Usage:
//
//	tracecheck trace.json
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"slices"
	"strconv"

	"dsmtx/internal/trace"
)

type event struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Pid  *int            `json:"pid"`
	Tid  *int            `json:"tid"`
	Ts   json.RawMessage `json:"ts"`
	Dur  json.RawMessage `json:"dur"`
	Args map[string]any  `json:"args"`
}

type traceFile struct {
	TraceEvents []event `json:"traceEvents"`
	Clock       string  `json:"clock"`   // "wall" on host traces; empty on vtime
	Dropped     uint64  `json:"dropped"` // events lost to full track buffers
}

// metadataNames are the Chrome metadata records the exporter emits beside
// the span/instant vocabulary.
var metadataNames = map[string]bool{
	"process_name":      true,
	"thread_name":       true,
	"thread_sort_index": true,
}

// commitTrack is the commit unit's thread name; commitOrderSpans are the
// spans that finish an MTX there. verdictTrack is the try-commit unit's,
// whose validate spans carry each MTX's verdict.
const commitTrack, verdictTrack = "commit", "trycommit0"

var commitOrderSpans = map[string]bool{
	trace.SpanCommit.String(): true,
	trace.SpanSEQ.String():    true,
}

// mtxSpan is a commit-order, validate or misspec span (or zero-length
// instant): its MTX, its times in nanoseconds and a validate's verdict.
type mtxSpan struct {
	name       string
	mtx        uint64
	start, end int64
	ok         bool
}

// checkCommitOrder requires spans, the commit-order spans of one track in
// file order, to count up from MTX 0 by one, restarting at 0 only after a
// higher MTX (the next chained invocation).
func checkCommitOrder(spans []mtxSpan) error {
	next := uint64(0)
	for i, sp := range spans {
		switch m := sp.mtx; {
		case m == next:
			next++
		case m == 0 && next > 1:
			next = 1
		default:
			return fmt.Errorf("commit order: span %d on the %s track finishes MTX %d, want MTX %d",
				i, commitTrack, m, next)
		}
	}
	return nil
}

// checkVerdicts requires every commit in commits (the commit track's
// spans, in commit order) to start at or after the end of a validate of its
// MTX with ok=1 in validates (the try-commit track's, in file order), in
// the same chained invocation. On either track MTX 0 after any other span
// starts the next invocation.
func checkVerdicts(commits, validates []mtxSpan) error {
	verdict := make(map[[2]uint64]int64) // (invocation, MTX) -> end of its first ok=1 validate
	inv := uint64(0)
	for i, v := range validates {
		if v.mtx == 0 && i > 0 {
			inv++
		}
		if _, seen := verdict[[2]uint64{inv, v.mtx}]; v.ok && !seen {
			verdict[[2]uint64{inv, v.mtx}] = v.end
		}
	}
	inv = 0
	for i, c := range commits {
		if c.mtx == 0 && i > 0 {
			inv++
		}
		if end, ok := verdict[[2]uint64{inv, c.mtx}]; c.name == trace.SpanCommit.String() && (!ok || c.start < end) {
			return fmt.Errorf("verdict: the commit of MTX %d (invocation %d) starts at %d ns, before any validate of it with ok=1 ends on the %s track",
				c.mtx, inv, c.start, verdictTrack)
		}
	}
	return nil
}

// checkSEQCauses requires every recovery.SEQ in commits to start at or after
// a cause of its MTX (causes: misspec instants, ok=0 validates) that starts
// after the previous chained invocation's last commit-order span ends.
func checkSEQCauses(commits, causes []mtxSpan) error {
	floor, last := int64(math.MinInt64), int64(math.MinInt64)
	for i, c := range commits {
		if c.mtx == 0 && i > 0 {
			floor = last
		}
		last = max(last, c.end)
		if c.name == trace.SpanSEQ.String() && !slices.ContainsFunc(causes, func(m mtxSpan) bool {
			return m.mtx == c.mtx && m.start >= floor && m.start <= c.start
		}) {
			return fmt.Errorf("cause: the recovery.SEQ of MTX %d starts at %d ns with no misspec or ok=0 validate of it before it in its invocation",
				c.mtx, c.start)
		}
	}
	return nil
}

// usec parses a trace timestamp (a JSON number in microseconds, emitted
// with nanosecond precision as %d.%03d).
func usec(raw json.RawMessage) (float64, error) {
	return strconv.ParseFloat(string(raw), 64)
}

// check validates one trace file's bytes and reports a one-line summary.
func check(data []byte) (string, error) {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return "", fmt.Errorf("not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		return "", fmt.Errorf("no traceEvents")
	}
	if tf.Dropped > 0 {
		return "", fmt.Errorf("%d events dropped by full track buffers: the timeline is incomplete", tf.Dropped)
	}

	known := make(map[string]bool)
	for _, name := range trace.KnownEventNames() {
		known[name] = true
	}
	named := make(map[int]string) // tid -> thread_name from metadata
	eventTids := make(map[int]int)
	spans, instants := 0, 0
	kinds := make(map[string]int)
	lastTs := make(map[int]float64)     // tid -> last event ts (wall monotonicity)
	mtxSpans := make(map[int][]mtxSpan) // tid -> its commit-order and validate spans
	wall := tf.Clock == "wall"
	if tf.Clock != "" && !wall {
		return "", fmt.Errorf("unknown clock %q (have wall, or omit for vtime)", tf.Clock)
	}
	checkMono := func(i int, e *event, ts float64) error {
		if !wall {
			return nil
		}
		if prev, ok := lastTs[*e.Tid]; ok && ts < prev {
			return fmt.Errorf("event %d (%q): wall-clock ts %g regresses below %g on tid %d",
				i, e.Name, ts, prev, *e.Tid)
		}
		lastTs[*e.Tid] = ts
		return nil
	}
	var causes []mtxSpan // misspec instants and ok=0 validates
	// noteMTX records a commit-order, validate or misspec span; a zero-length
	// one is exported as an instant (dur 0), so both phases come here.
	noteMTX := func(i int, e *event, ts, dur float64) error {
		if !commitOrderSpans[e.Name] && e.Name != trace.SpanValidate.String() && e.Name != trace.InstMisspec.String() {
			return nil
		}
		mtx, ok := e.Args["mtx"].(float64)
		if !ok || mtx < 0 {
			return fmt.Errorf("event %d (%q): no mtx arg", i, e.Name)
		}
		verdict, _ := e.Args["ok"].(float64)
		sp := mtxSpan{e.Name, uint64(mtx), int64(math.Round(ts * 1000)), int64(math.Round((ts + dur) * 1000)), verdict == 1}
		mtxSpans[*e.Tid] = append(mtxSpans[*e.Tid], sp)
		if e.Name == trace.InstMisspec.String() || e.Name == trace.SpanValidate.String() && !sp.ok {
			causes = append(causes, sp)
		}
		return nil
	}
	for i, e := range tf.TraceEvents {
		if e.Pid == nil || e.Tid == nil {
			return "", fmt.Errorf("event %d (%q): missing pid/tid", i, e.Name)
		}
		switch e.Ph {
		case "M":
			if !metadataNames[e.Name] {
				return "", fmt.Errorf("event %d: unknown metadata record %q", i, e.Name)
			}
			if e.Name == "thread_name" {
				name, _ := e.Args["name"].(string)
				if name == "" {
					return "", fmt.Errorf("event %d: thread_name metadata without a name", i)
				}
				named[*e.Tid] = name
			}
		case "X":
			if !known[e.Name] {
				return "", fmt.Errorf("event %d: span name %q is not in the tracer vocabulary", i, e.Name)
			}
			ts, err := usec(e.Ts)
			if err != nil {
				return "", fmt.Errorf("event %d (%q): bad ts %s: %v", i, e.Name, e.Ts, err)
			}
			dur, err := usec(e.Dur)
			if err != nil {
				return "", fmt.Errorf("event %d (%q): bad dur %s: %v", i, e.Name, e.Dur, err)
			}
			if ts < 0 || dur < 0 {
				return "", fmt.Errorf("event %d (%q): negative ts/dur (%g, %g)", i, e.Name, ts, dur)
			}
			if err := checkMono(i, &e, ts); err != nil {
				return "", err
			}
			if err := noteMTX(i, &e, ts, dur); err != nil {
				return "", err
			}
			spans++
			kinds[e.Name]++
			eventTids[*e.Tid]++
		case "i":
			if !known[e.Name] {
				return "", fmt.Errorf("event %d: instant name %q is not in the tracer vocabulary", i, e.Name)
			}
			ts, err := usec(e.Ts)
			if err != nil {
				return "", fmt.Errorf("event %d (%q): bad ts %s: %v", i, e.Name, e.Ts, err)
			}
			if err := checkMono(i, &e, ts); err != nil {
				return "", err
			}
			if err := noteMTX(i, &e, ts, 0); err != nil {
				return "", err
			}
			instants++
			kinds[e.Name]++
			eventTids[*e.Tid]++
		default:
			return "", fmt.Errorf("event %d (%q): unexpected phase %q", i, e.Name, e.Ph)
		}
	}
	if spans == 0 {
		return "", fmt.Errorf("no duration events")
	}
	var commits, validates []mtxSpan
	for tid := range eventTids {
		switch named[tid] {
		case "":
			return "", fmt.Errorf("thread %d has %d events but no thread_name metadata", tid, eventTids[tid])
		case commitTrack:
			commits = mtxSpans[tid]
			if err := checkCommitOrder(commits); err != nil {
				return "", err
			}
		case verdictTrack:
			validates = mtxSpans[tid]
		}
	}
	if validates != nil {
		if err := checkVerdicts(commits, validates); err != nil {
			return "", err
		}
		if err := checkSEQCauses(commits, causes); err != nil {
			return "", err
		}
	}
	clk := "vtime"
	if wall {
		clk = "wall clock"
	}
	return fmt.Sprintf("%d spans + %d instants across %d named tracks, %d event kinds (%s)",
		spans, instants, len(eventTids), len(kinds), clk), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracecheck: ")
	if len(os.Args) != 2 {
		log.Fatal("usage: tracecheck trace.json")
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		log.Fatal(err)
	}
	summary, err := check(data)
	if err != nil {
		log.Fatalf("%s: %v", os.Args[1], err)
	}
	fmt.Printf("tracecheck: %s OK — %s\n", os.Args[1], summary)
}
