package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dsmtx/internal/cli/clitest"
)

// TestParseFlagsErrors covers the CLI's rejection paths: unknown figures
// and tables, malformed core lists, benchmarks missing from the
// registry, and stray positional arguments.
func TestParseFlagsErrors(t *testing.T) {
	clitest.RejectAll(t, parseFlags, []clitest.RejectCase{
		{Args: []string{"-figure", "9"}, Want: "unknown -figure"},
		{Args: []string{"-figure", "5c"}, Want: "unknown -figure"},
		{Args: []string{"-figure", "r"}, Want: "unknown -figure"}, // fault injection left the product
		{Args: []string{"-figure", "s"}, Want: "unknown -figure"}, // commit sharding left the product
		{Args: []string{"-table", "3"}, Want: "unknown -table"},
		{Args: []string{"-bench", "999.nope"}, Want: "unknown benchmark"},
		{Args: []string{"-cores", "8,banana"}, Want: "bad -cores"},
		{Args: []string{"-cores", "8,,16"}, Want: "bad -cores"},
		{Args: []string{"-cores", "0"}, Want: "not a positive core count"},
		{Args: []string{"-cores", "-4"}, Want: "bad -cores"},
		{Args: []string{"-all", "extra"}, Want: "unexpected arguments"},
		{Args: []string{"-no-such-flag"}, Want: "flag provided but not defined"},
	})
}

// TestParseFlagsBenchNamesOptions: the unknown-benchmark error names the
// registry so the user can correct the flag without reading source.
func TestParseFlagsBenchNamesOptions(t *testing.T) {
	_, err := parseFlags([]string{"-bench", "nope"})
	if err == nil || !strings.Contains(err.Error(), "164.gzip") {
		t.Fatalf("err = %v, want the benchmark list", err)
	}
}

// TestParseFlagsCores: -cores overrides -quick, tolerating spaces;
// "geomean" passes the bench filter.
func TestParseFlagsCores(t *testing.T) {
	o, err := parseFlags([]string{"-quick", "-cores", " 8, 16 ,32", "-bench", "geomean"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.cores, []int{8, 16, 32}) {
		t.Fatalf("cores = %v", o.cores)
	}
	o, err = parseFlags([]string{"-quick"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.cores, []int{8, 16, 32, 64, 96, 128}) {
		t.Fatalf("quick cores = %v", o.cores)
	}
}

// TestRunNothingSelected: no section flags is an error, not silence.
func TestRunNothingSelected(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := run(o, &out, &errb); err == nil || !strings.Contains(err.Error(), "nothing selected") {
		t.Fatalf("run() err = %v", err)
	}
}

// TestRunStdoutStderrSeparation: a cheap real section renders to stdout
// while stderr carries only progress/log lines, so stdout stays
// machine-parseable.
func TestRunStdoutStderrSeparation(t *testing.T) {
	o, err := parseFlags([]string{"-figure", "1", "-cache", ""})
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := run(o, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Errorf("stdout missing figure:\n%s", out.String())
	}
	if strings.Contains(errb.String(), "Figure 1") {
		t.Errorf("figure leaked to stderr:\n%s", errb.String())
	}
	if strings.Contains(out.String(), "dsmtxbench:") {
		t.Errorf("log line leaked to stdout:\n%s", out.String())
	}
}

// TestRunParallelStdoutByteIdentical: the acceptance invariant at the
// CLI level — -parallel N stdout is byte-identical to -parallel 1 — on a
// small real sweep (micro + one Fig. 5b row), with progress and the sweep
// summary confined to stderr.
func TestRunParallelStdoutByteIdentical(t *testing.T) {
	render := func(parallel string) (stdout, stderr string) {
		t.Helper()
		o, err := parseFlags([]string{"-micro", "-figure", "5b", "-bench", "crc32", "-parallel", parallel, "-cache", ""})
		if err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if err := run(o, &out, &errb); err != nil {
			t.Fatal(err)
		}
		return out.String(), errb.String()
	}
	seqOut, _ := render("1")
	parOut, parErr := render("8")
	if seqOut != parOut {
		t.Errorf("stdout differs between -parallel 1 and -parallel 8:\n--- seq ---\n%s\n--- par ---\n%s", seqOut, parOut)
	}
	if !strings.Contains(parErr, "dsmtxbench: sweep workers=8") {
		t.Errorf("stderr missing sweep summary:\n%s", parErr)
	}
	if !strings.Contains(parErr, "[1] ") {
		t.Errorf("stderr missing progress:\n%s", parErr)
	}
}

// TestRunWarmCacheSkipsSimulations: at the CLI level, a second run over
// the same -cache directory reports zero computed points and identical
// stdout.
func TestRunWarmCacheSkipsSimulations(t *testing.T) {
	dir := t.TempDir()
	render := func() (string, string) {
		t.Helper()
		o, err := parseFlags([]string{"-figure", "5b", "-bench", "crc32", "-parallel", "4", "-cache", dir})
		if err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if err := run(o, &out, &errb); err != nil {
			t.Fatal(err)
		}
		return out.String(), errb.String()
	}
	coldOut, coldErr := render()
	warmOut, warmErr := render()
	if coldOut != warmOut {
		t.Errorf("stdout differs between cold and warm cache:\n%s\nvs\n%s", coldOut, warmOut)
	}
	if !strings.Contains(coldErr, "computed=3 cached=0") {
		t.Errorf("cold stderr: %s", coldErr)
	}
	if !strings.Contains(warmErr, "computed=0 cached=3") {
		t.Errorf("warm rerun must be 100%% cache hits: %s", warmErr)
	}
}
