package workloads

import (
	"strings"
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/platform"
	"dsmtx/internal/trace"
)

// The host backend runs the same DSMTX protocol as the vtime simulator but
// on live goroutines with nondeterministic interleaving. Protocol outcomes
// must nonetheless be backend-invariant: misspeculations come from the
// input's deterministic per-iteration misspec set (not from timing), and
// Copy-On-Access pages are served from the invocation-entry snapshot, so
// the values any iteration observes — and hence the committed state — do
// not depend on scheduling. These tests pin that equivalence: both backends
// must reproduce the sequential reference checksum with identical committed
// MTX counts. They are part of the -race gate in verify.sh, which also
// makes them the data-race audit of the host execution path.

// checkBackendEquivalence runs one benchmark on both backends at the same
// core count and cross-checks them against the sequential reference.
func checkBackendEquivalence(t *testing.T, name string, in Input, cores int) {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	_, seqCheck, err := RunSequentialRef(b, in)
	if err != nil {
		t.Fatal(err)
	}
	vres, err := RunParallel(b, in, DSMTX, cores, nil)
	if err != nil {
		t.Fatalf("vtime: %v", err)
	}
	hres, err := RunParallel(b, in, DSMTX, cores, func(cfg *core.Config) {
		cfg.Backend = core.BackendHost
	})
	if err != nil {
		t.Fatalf("host: %v", err)
	}
	if vres.Checksum != seqCheck {
		t.Errorf("vtime checksum %#x != sequential %#x", vres.Checksum, seqCheck)
	}
	if hres.Checksum != seqCheck {
		t.Errorf("host checksum %#x != sequential %#x", hres.Checksum, seqCheck)
	}
	if hres.Committed != vres.Committed {
		t.Errorf("committed MTXs differ: host %d, vtime %d", hres.Committed, vres.Committed)
	}
	if hres.Misspecs != vres.Misspecs {
		t.Errorf("misspeculations differ: host %d, vtime %d", hres.Misspecs, vres.Misspecs)
	}
	if hres.Elapsed <= 0 {
		t.Errorf("host elapsed %v, want > 0 wall time", hres.Elapsed)
	}
	if in.MisspecRate > 0 && hres.Misspecs == 0 {
		t.Errorf("misspec rate %v produced no misspeculations; recovery path not exercised", in.MisspecRate)
	}
}

func TestBackendEquivalenceCRC32(t *testing.T) {
	// MisspecRate forces real misspeculation/recovery cycles — four-phase
	// recovery (barriers, queue flush, SEQ re-execution, snapshot refresh)
	// runs live on goroutines and must still converge to the same state.
	checkBackendEquivalence(t, "crc32", Input{Scale: 1, Seed: 42, MisspecRate: 0.02}, 8)
}

func TestBackendEquivalenceBlackscholes(t *testing.T) {
	checkBackendEquivalence(t, "blackscholes", Input{Scale: 1, Seed: 42}, 8)
}

func TestBackendEquivalenceGzip(t *testing.T) {
	// A pipelined (multi-stage) plan: exercises cross-stage forwarding and
	// route records over the host mailboxes.
	checkBackendEquivalence(t, "164.gzip", Input{Scale: 1, Seed: 42}, 11)
}

// TestHostStallTableAccountsWallClock: on a live backend the stall table is
// wall-clock attribution — waits charged at what they took, Busy what they
// leave of the rank's lifetime — so no cell is negative and no rank accounts
// for more time than the run lasted. 197.parser at rate 0.05 recovers 20
// times, the case where the modelled back-off once drove Busy below zero.
func TestHostStallTableAccountsWallClock(t *testing.T) {
	b, err := ByName("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunParallel(b, Input{Scale: 1, Seed: 42, MisspecRate: 0.05}, DSMTX, 5, func(cfg *core.Config) {
		cfg.Backend = core.BackendHost
		cfg.Tracer = trace.NewMetricsOnly()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stalls.Rows) == 0 || res.Misspecs == 0 {
		t.Fatalf("%d stall rows, %d misspeculations; want a traced run that recovers", len(res.Stalls.Rows), res.Misspecs)
	}
	for _, r := range res.Stalls.Rows {
		for _, cell := range []platform.Duration{r.Busy, r.Backpressure, r.Starvation, r.VerdictWait, r.Recovery, r.Blocked, r.Park} {
			if cell < 0 {
				t.Errorf("%s: negative cell in %+v", r.Label, r)
				break
			}
		}
		if r.Total() > res.Elapsed {
			t.Errorf("%s: accounts for %v of a %v run", r.Label, r.Total(), res.Elapsed)
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
		for _, cell := range []platform.Time{r.Busy, r.Backpressure, r.Starvation, r.VerdictWait, r.Recovery, r.Blocked} {
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
