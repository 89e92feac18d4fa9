package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"dsmtx/internal/cli/clitest"
)

func TestParseFlagsErrors(t *testing.T) {
	clitest.RejectAll(t, parseFlags, []clitest.RejectCase{
		{Args: []string{"stray"}, Want: "unexpected arguments"},
		{Args: []string{"-no-such-flag"}, Want: "flag provided but not defined"},
		{Args: []string{"serve", "stray"}, Want: "unexpected arguments"},
		{Args: []string{"serve", "-listen", ""}, Want: "serve needs -listen"},
		{Args: []string{"serve", "-backend", "net"}, Want: "unknown -backend"},
		{Args: []string{"serve", "-max-jobs", "-1"}, Want: ">= 0"},
		{Args: []string{"serve", "-queue-depth", "-1"}, Want: ">= 0"},
		// The job listener serves /metrics; there is no second listener.
		{Args: []string{"serve", "-metrics-addr", "x"}, Want: "flag provided but not defined"},
	})
}

func TestParseFlagsRoles(t *testing.T) {
	o, err := parseFlags([]string{"-listen", "10.0.0.1:7000"})
	if err != nil {
		t.Fatal(err)
	}
	if o.serve || o.listen != "10.0.0.1:7000" {
		t.Fatalf("daemon role: %+v", o)
	}
	o, err = parseFlags([]string{"serve"})
	if err != nil {
		t.Fatal(err)
	}
	if !o.serve || o.listen != "127.0.0.1:7800" || o.backend != "host" || o.queueDepth != 64 {
		t.Fatalf("serve defaults: %+v", o)
	}
}

// TestServeLifecycle boots `dsmtxd serve` on an ephemeral port, submits a
// synchronous job and a detached one over HTTP, reads /stats and /metrics
// on the same listener, then closes the stop channel and requires a clean
// drain.
func TestServeLifecycle(t *testing.T) {
	o, err := parseFlags([]string{"serve", "-listen", "127.0.0.1:0", "-backend", "vtime", "-cache", ""})
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	o.onReady = func(addr string) { ready <- addr }
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- run(o, stop) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	// Synchronous job with verification.
	resp, err := http.Post(base+"/jobs?wait=1", "application/json",
		strings.NewReader(`{"bench":"crc32","cores":8,"verify":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Verified bool   `json:"verified"`
		Source   string `json:"source"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !res.Verified || res.Source != "run" {
		t.Fatalf("sync job: status %d, %+v", resp.StatusCode, res)
	}

	// Detached job: 202 with an id, then poll /jobs/{id} until done.
	resp, err = http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"bench":"crc32","cores":8}`))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID uint64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || acc.ID == 0 {
		t.Fatalf("detached job: status %d, id %d", resp.StatusCode, acc.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, acc.ID))
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == "done" {
			break
		}
		if st.State == "failed" {
			t.Fatalf("detached job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("detached job stuck in state %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Stats reflect the work.
	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Engine struct {
			Completed uint64 `json:"completed"`
		} `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Engine.Completed < 2 {
		t.Fatalf("completed = %d, want >= 2", stats.Engine.Completed)
	}

	// The engine's metrics registry, on the job listener.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters map[string]uint64 `json:"counters"`
	}
	err = json.NewDecoder(resp.Body).Decode(&metrics)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("/metrics: status %d, decode error %v", resp.StatusCode, err)
	}
	if n, ok := metrics.Counters["engine.jobs.submitted"]; !ok || n < 2 {
		t.Fatalf("/metrics engine.jobs.submitted = %d (present %v), want >= 2", n, ok)
	}

	// Graceful drain.
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain")
	}
	// The listener is gone: new submissions fail at the TCP layer.
	if _, err := http.Post(base+"/jobs?wait=1", "application/json",
		strings.NewReader(`{"bench":"crc32"}`)); err == nil {
		t.Fatal("submission accepted after drain")
	}
}

// TestServeRejectsBadSpec: spec errors are 400s with a useful message.
func TestServeRejectsBadSpec(t *testing.T) {
	o, err := parseFlags([]string{"serve", "-listen", "127.0.0.1:0", "-cache", ""})
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	o.onReady = func(addr string) { ready <- addr }
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- run(o, stop) }()
	addr := <-ready
	defer func() { close(stop); <-done }()

	for body, want := range map[string]string{
		`{"bench":"nope","cores":8}`:     "unknown benchmark",
		`{"bench":"crc32","cores":-2}`:   "cores",
		`{"bench":"crc32","bogus":true}`: "bad job spec",
		// used to be admitted and run as rate 0
		`{"bench":"crc32","cores":8,"rate":-0.5}`: "rate -0.5 outside [0,1]",
		// commit sharding left the product: an old sharded spec is refused,
		// never run on one commit unit under a cache key of its own
		`{"bench":"crc32","cores":8,"commit_shards":2}`: `bad job spec: json: unknown field \"commit_shards\"`,
		// fault injection left the product: an old faulted spec is refused,
		// never run fault-free under a cache key of its own
		`{"bench":"crc32","cores":8,"faults":"straggler=r1:2x@0ns+1ms"}`: "bad job spec",
		// used to be admitted, fail in core.NewSystem and answer 500
		`{"bench":"crc32","backend":"host","cores":2}`:   "2 cores leave 0 workers",
		`{"bench":"crc32","backend":"host","cores":129}`: "exceed the machine's 128",
	} {
		resp, err := http.Post("http://"+addr+"/jobs?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), want) {
			t.Errorf("%s: status %d, body %s (want 400 with %q)", body, resp.StatusCode, buf.String(), want)
		}
	}
}
