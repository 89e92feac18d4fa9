package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsmtx/internal/cli/clitest"
	"dsmtx/internal/core"
	"dsmtx/internal/workloads"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.spec.Bench != "" || o.spec.Cores != 32 || o.spec.ParsedParadigm() != workloads.DSMTX || o.spec.ParsedBackend() != core.BackendVTime {
		t.Fatalf("unexpected defaults: %+v", o)
	}
}

func TestParseFlagsBackends(t *testing.T) {
	o, err := parseFlags([]string{"-bench", "crc32", "-backend", "host"})
	if err != nil {
		t.Fatal(err)
	}
	if o.spec.ParsedBackend() != core.BackendHost {
		t.Fatalf("backend = %v, want host", o.spec.Backend)
	}
	if _, err := parseFlags([]string{"-backend", "qemu"}); err == nil {
		t.Fatal("accepted unknown backend")
	}
	// Net daemons configure their ranks from the job spec, so TLS runs there.
	o, err = parseFlags([]string{"-bench", "crc32", "-cores", "8", "-backend", "net", "-paradigm", "tls"})
	if err != nil || o.spec.ParsedParadigm() != workloads.TLS {
		t.Fatalf("-backend net -paradigm tls: %v", err)
	}
}

// TestUsageNamesEveryBackend: the -backend help must list every value
// core.ParseBackend accepts (it said "vtime or host" while net was accepted).
func TestUsageNamesEveryBackend(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w // the flag package prints usage to os.Stderr as of the call
	_, err = parseFlags([]string{"-h"})
	os.Stderr = stderr
	w.Close()
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("parseFlags(-h): err = %v, want flag.ErrHelp", err)
	}
	usage, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	_, help, _ := strings.Cut(string(usage), "-backend")
	help, _, _ = strings.Cut(help, "\n  -") // up to the next flag
	n := 0
	for b := core.BackendVTime; ; b++ {
		if got, err := core.ParseBackend(b.String()); err != nil || got != b {
			break // past the last backend, which String renders as backend(N)
		}
		n++
		if !strings.Contains(help, b.String()) {
			t.Errorf("-backend help does not name %q:\n%s", b, help)
		}
	}
	if n < 3 {
		t.Fatalf("enumerated %d backends, want at least vtime, host, net", n)
	}
}

func TestParseFlagsErrors(t *testing.T) {
	clitest.RejectAll(t, parseFlags, []clitest.RejectCase{
		{Args: []string{"stray-positional"}, Want: "unexpected arguments"},
		{Args: []string{"-paradigm", "openmp"}, Want: "unknown -paradigm"},
		{Args: []string{"-bench", "crc32", "-misspec", "NaN"}, Want: "rate NaN outside [0,1]"},
		{Args: []string{"-faults", "spike=notanumber:1us"}, Want: "-faults"},
		// removed fault clauses
		{Args: []string{"-faults", "drop=0.01"}, Want: "unknown clause key"},
		{Args: []string{"-faults", "ackdrop=0.01"}, Want: "unknown clause key"},
		// the engine's backend × feature rules surface as flag errors
		{Args: []string{"-bench", "crc32", "-backend", "host", "-faults", "straggler=r1:2x@0ns+1ms"}, Want: "Faults: fault injection is built on the virtual-time kernel"},
		{Args: []string{"-bench", "crc32", "-backend", "net", "-faults", "straggler=r1:2x@0ns+1ms"}, Want: "Faults: fault injection is built on the virtual-time kernel"},
		{Args: []string{"-bench", "crc32", "-backend", "net", "-commit-shards", "2"}, Want: "net backend"},
		{Args: []string{"-bench", "crc32", "-backend", "net", "-trace", "t.json"}, Want: "Options.Tracer"},
		{Args: []string{"-bench", "999.nope"}, Want: "unknown benchmark"},
	})
}

// TestParseFlagsHostObservability pins the lifted restriction: tracing and
// metrics are backend-agnostic now, so the host backend accepts them.
func TestParseFlagsHostObservability(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "crc32", "-backend", "host", "-trace", "out.json"},
		{"-bench", "crc32", "-backend", "host", "-metrics"},
		{"-bench", "crc32", "-backend", "host", "-metrics-addr", "127.0.0.1:0"},
	} {
		if _, err := parseFlags(args); err != nil {
			t.Errorf("parseFlags(%v): %v", args, err)
		}
	}
}

func TestParseFlagsFaultPlan(t *testing.T) {
	o, err := parseFlags([]string{"-bench", "crc32", "-faults", "spike=0.01:20us,seed=7"})
	if err != nil {
		t.Fatal(err)
	}
	if o.plan == nil || o.plan.Seed != 7 {
		t.Fatalf("plan = %+v, want seed 7", o.plan)
	}
}

// TestRunOutputByteIdentical pins the refactored run(): the vtime report is
// a pure function of the options, so two runs must produce identical bytes.
func TestRunOutputByteIdentical(t *testing.T) {
	o, err := parseFlags([]string{"-bench", "crc32", "-cores", "8"})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := run(o, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(o, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("vtime output not byte-identical:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{"crc32", "speedup", "MTXs committed", "VERIFIED"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunSpeculationLine: a run that misspeculated reports its squashed work
// (subTXs executed against the ones committed MTXs needed) beside the
// recovery line; a clean run prints neither.
func TestRunSpeculationLine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want bool
	}{
		{[]string{"-bench", "197.parser", "-cores", "5", "-misspec", "0.05"}, true},
		{[]string{"-bench", "197.parser", "-cores", "5", "-misspec", "0.05", "-backend", "host"}, true},
		{[]string{"-bench", "197.parser", "-cores", "5"}, false},
	} {
		o, err := parseFlags(tc.args)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run(o, &buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if got := strings.Contains(out, "  speculation     "); got != tc.want || got != strings.Contains(out, "  recovery        ") {
			t.Errorf("%v: speculation line printed = %v, want %v, and only beside the recovery line:\n%s", tc.args, got, tc.want, out)
		}
		if tc.want && !strings.Contains(out, "subTXs executed, 2400 useful (") {
			t.Errorf("%v: want 800 MTXs x 3 stages = 2400 useful subTXs:\n%s", tc.args, out)
		}
	}
}

// TestRunHostBackend executes a real host-backend run end to end: the
// checksum must verify against the vtime sequential reference, and no
// modelled speedup is reported (wall clock is not comparable to virtual
// time).
func TestRunHostBackend(t *testing.T) {
	o, err := parseFlags([]string{"-bench", "crc32", "-cores", "8", "-backend", "host"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "backend host") || !strings.Contains(out, "VERIFIED") {
		t.Errorf("host run output unexpected:\n%s", out)
	}
	if strings.Contains(out, "speedup") {
		t.Errorf("host run reported a speedup:\n%s", out)
	}
}

// TestRunHostBackendTraced runs the host backend with the wall-clock tracer
// attached end to end: the Chrome trace must be valid JSON carrying the
// "clock":"wall" marker, and the stall tables must grow the host delivery
// columns.
func TestRunHostBackendTraced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "host.json")
	o, err := parseFlags([]string{"-bench", "crc32", "-cores", "8", "-backend", "host",
		"-trace", path, "-metrics"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "VERIFIED") {
		t.Errorf("traced host run did not verify:\n%s", out)
	}
	for _, col := range []string{"park", "shard-q"} {
		if !strings.Contains(out, col) {
			t.Errorf("stall tables missing host column %q:\n%s", col, out)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Clock       string           `json:"clock"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.Clock != "wall" {
		t.Errorf("trace clock = %q, want wall", doc.Clock)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
}

// TestReportOutputMismatchFails: a checksum that does not match the
// sequential reference prints both and is an error (a non-zero exit), not
// only a line in a report that exits 0.
func TestReportOutputMismatchFails(t *testing.T) {
	var buf bytes.Buffer
	if err := reportOutput(&buf, 0xabc, 0xabc); err != nil || !strings.Contains(buf.String(), "VERIFIED (checksum 0xabc") {
		t.Errorf("matching checksums: err = %v, printed %q", err, buf.String())
	}
	buf.Reset()
	err := reportOutput(&buf, 0xabc, 0xdef)
	if err == nil {
		t.Error("mismatching checksums returned no error")
	}
	if out := buf.String(); !strings.Contains(out, "MISMATCH") || !strings.Contains(out, "0xabc") || !strings.Contains(out, "0xdef") || strings.Contains(out, "VERIFIED") {
		t.Errorf("mismatch printed %q, want MISMATCH with both checksums", out)
	}
}

func TestRunListsBenchmarksWithoutBench(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "164.gzip") {
		t.Errorf("benchmark listing missing 164.gzip:\n%s", buf.String())
	}
}
