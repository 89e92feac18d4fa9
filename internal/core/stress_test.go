package core

import (
	"testing"

	"dsmtx/internal/pipeline"
	"dsmtx/internal/platform"
)

// Deadlock-freedom stress tests. A protocol deadlock in the runtime shows
// up as unbounded virtual polling, so every run here carries a horizon: a
// system that has not finished within one virtual second is stuck.

// guarded runs prog and fails the test if it deadlocks or under-commits.
func guarded(t *testing.T, cfg Config, prog Program, wantCommits uint64) Result {
	t.Helper()
	cfg.Horizon = platform.Second
	sys, err := NewSystem(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%v", err)
	}
	if res.Committed != wantCommits {
		t.Fatalf("stuck: committed %d/%d (misspecs %d)", res.Committed, wantCommits, res.Misspecs)
	}
	return res
}

// Regression for a real deadlock: under TLS, a worker's batched subTX
// markers sat unflushed while it blocked in SyncRecv; the commit unit could
// not advance past that iteration, so the recovery that would unblock the
// ring never fired. (Misspecs at iterations 1 and 4 on a 4-worker ring.)
func TestTLSSyncMarkerFlushDeadlock(t *testing.T) {
	plan := pipeline.SpecDOALL()
	plan.Sync = true
	prog := &tlsMisspecProg{n: 24, misspecs: misspecsOf(1, 4)}
	guarded(t, smallConfig(6, plan), prog, 24)
}

// Every misspec position x core count for the TLS ring.
func TestTLSMisspecPositionsSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep")
	}
	plan := pipeline.SpecDOALL()
	plan.Sync = true
	for pos := uint64(0); pos < 24; pos++ {
		for _, cores := range []int{4, 6, 10} {
			prog := &tlsMisspecProg{n: 24, misspecs: misspecsOf(pos, (pos+3)%24)}
			guarded(t, smallConfig(cores, plan), prog, 24)
		}
	}
}

// Every misspec pair x core count for the 3-stage pipeline.
func TestPipelineMisspecPairsSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep")
	}
	const n = 18
	for cores := 5; cores <= 9; cores++ {
		for a := uint64(0); a < n; a++ {
			for b := a; b < n; b++ {
				prog := &pipeProg{n: n, misspecs: misspecsOf(a, b)}
				guarded(t, smallConfig(cores, pipeline.SpecDSWP("S", "DOALL", "S")), prog, n)
			}
		}
	}
}

// Every conflict flip position for Spec-DOALL value-based detection.
func TestDoallFlipSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep")
	}
	for flip := uint64(0); flip < 30; flip++ {
		for _, cores := range []int{4, 7, 11, 16} {
			prog := &doallProg{n: 30, flip: flip}
			guarded(t, smallConfig(cores, pipeline.SpecDOALL()), prog, 30)
		}
	}
}

// Occupancy routing under misspeculation must not wedge the feeder.
func TestOccupancyRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep")
	}
	plan := pipeline.SpecDSWP("S", "DOALL", "S")
	plan.Occupancy = true
	for pos := uint64(0); pos < 16; pos++ {
		prog := &pipeProg{n: 16, misspecs: misspecsOf(pos)}
		guarded(t, smallConfig(7, plan), prog, 16)
	}
}
