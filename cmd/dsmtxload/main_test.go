package main

import (
	"bytes"
	"net"
	"net/http"
	"strings"
	"testing"

	"dsmtx/internal/cli/clitest"
	"dsmtx/internal/engine"
)

// serveForTest binds an engine.Server to a loopback ephemeral port.
func serveForTest(t *testing.T, srv *engine.Server) (*http.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return hs, ln.Addr().String()
}

func TestParseFlagsErrors(t *testing.T) {
	clitest.RejectAll(t, parseFlags, []clitest.RejectCase{
		{Args: nil, Want: "-addr is required"},
		{Args: []string{"-addr", "x:1", "stray"}, Want: "unexpected arguments"},
		{Args: []string{"-addr", "x:1", "-jobs", "0"}, Want: ">= 1"},
		{Args: []string{"-addr", "x:1", "-clients", "0"}, Want: ">= 1"},
		{Args: []string{"-addr", "x:1", "-rate", "-3"}, Want: "-rate"},
		{Args: []string{"-addr", "x:1", "-distinct", "0"}, Want: "-distinct"},
		{Args: []string{"-addr", "x:1", "-bench", "nope"}, Want: "unknown benchmark"},
		{Args: []string{"-no-such-flag"}, Want: "flag provided but not defined"},
	})
}

func TestParseFlagsBenchMix(t *testing.T) {
	o, err := parseFlags([]string{"-addr", "127.0.0.1:7800", "-bench", "crc32, 164.gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.benches) != 2 || o.benches[0] != "crc32" || o.benches[1] != "164.gzip" {
		t.Fatalf("benches = %v", o.benches)
	}
}

// TestRunAgainstLiveEngine stands up a real engine.Server over HTTP and
// drives a small mixed closed-loop load through the full dsmtxload path:
// every checksum must verify, duplicates (jobs > distinct specs) must be
// served by the cache or coalescer, and the report must carry the
// percentile and VERIFIED lines.
func TestRunAgainstLiveEngine(t *testing.T) {
	eng := engine.New(engine.Config{MaxConcurrent: 4, QueueDepth: 256})
	defer eng.Close()
	srv := engine.NewServer(eng)
	hs, addr := serveForTest(t, srv)
	defer hs.Close()

	o, err := parseFlags([]string{"-addr", addr, "-jobs", "24", "-clients", "6",
		"-bench", "crc32", "-cores", "4", "-distinct", "3"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"p50", "p99", "p999", "VERIFIED (24/24"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	// 24 jobs over 3 distinct specs: at least some duplicates must have
	// been answered without recomputation.
	st := eng.Stats()
	if st.CacheHits+st.Coalesced == 0 {
		t.Errorf("no cache hits or coalesced jobs across duplicate specs: %+v", st)
	}
}

// TestRunReportsFailure: an unreachable server is an error, not a hang.
func TestRunUnreachableServer(t *testing.T) {
	o, err := parseFlags([]string{"-addr", "127.0.0.1:1", "-jobs", "1", "-clients", "1"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(o, &out); err == nil || !strings.Contains(err.Error(), "not reachable") {
		t.Fatalf("err = %v", err)
	}
}
