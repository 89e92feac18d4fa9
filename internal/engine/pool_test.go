package engine

import (
	"context"
	gonet "net"
	"strings"
	"testing"

	"dsmtx/internal/netrun"
)

// TestWarmPoolDeterminism is the pooling acceptance gate: a host job on a
// recycled warm rank set must produce exactly the outcome a cold build
// produces — same checksum, same committed count, same misspeculation
// count — and the engine must report which path ran.
func TestWarmPoolDeterminism(t *testing.T) {
	e := New(Config{PoolPerKey: 2})
	defer e.Close()
	spec := JobSpec{Bench: "crc32", Cores: 4, Backend: "host", Seed: 11, Rate: 0.02}

	cold, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cold.PoolWarm {
		t.Fatal("first run cannot be warm")
	}
	// Same spec again: sequential submissions do not coalesce, and with no
	// cache configured the job really re-runs — on the parked rank set.
	warm, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.PoolWarm {
		t.Fatal("second run did not reuse the warm pool")
	}
	if warm.Checksum != cold.Checksum {
		t.Errorf("checksum: warm %x vs cold %x", warm.Checksum, cold.Checksum)
	}
	if warm.Committed != cold.Committed {
		t.Errorf("committed: warm %d vs cold %d", warm.Committed, cold.Committed)
	}
	if warm.Misspecs != cold.Misspecs {
		t.Errorf("misspecs: warm %d vs cold %d", warm.Misspecs, cold.Misspecs)
	}
	st := e.Stats()
	if st.PoolBuilds != 1 || st.PoolReuses != 1 {
		t.Fatalf("pool stats = %+v, want 1 build + 1 reuse", st)
	}
}

// TestPoolKeysDoNotMix: different job shapes draw from different pools —
// a parked crc32 system must never serve a different benchmark.
func TestPoolKeysDoNotMix(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	a := JobSpec{Bench: "crc32", Cores: 4, Backend: "host", Seed: 1}
	b := JobSpec{Bench: "164.gzip", Cores: 8, Backend: "host", Seed: 1}
	if _, err := e.Submit(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	res, err := e.Submit(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolWarm {
		t.Fatal("different benchmark reported a warm pool hit")
	}
	st := e.Stats()
	if st.PoolBuilds != 2 || st.PoolReuses != 0 {
		t.Fatalf("pool stats = %+v, want 2 builds", st)
	}
}

// TestVTimeNeverPools: the simulator's byte-identical determinism is the
// repo's golden invariant; pooled reuse must be host-only.
func TestVTimeNeverPools(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	spec := crc32Spec(2)
	for i := 0; i < 2; i++ {
		res, err := e.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.PoolWarm {
			t.Fatal("vtime job reported a warm pool")
		}
	}
	st := e.Stats()
	if st.PoolBuilds != 0 && st.PoolReuses != 0 {
		t.Fatalf("vtime runs touched the pool: %+v", st)
	}
}

// TestNetFleetSurvivesRejectedSpec: a net spec the coordinator refuses
// before writing a frame (cores: 2 passes JobSpec.Validate and leaves the
// plan no workers) must not cost the placement its warm fleet — the next
// job reuses the same cluster through the same handle. The fleet is two
// in-process netrun.ServeLoop daemons joined via Options.NetJoin.
func TestNetFleetSurvivesRejectedSpec(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := gonet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		stop := make(chan struct{})
		exit := make(chan int, 1)
		go func() { exit <- netrun.ServeLoop(ln, stop) }()
		t.Cleanup(func() {
			close(stop)
			if code := <-exit; code != 0 {
				t.Errorf("daemon %s: ServeLoop exit code %d", ln.Addr(), code)
			}
		})
	}
	e := New(Config{})
	t.Cleanup(e.Close) // before the daemons stop: their drain waits for the coordinator to hang up
	opts := Options{NetJoin: addrs}
	fleet := func() (*netCluster, *netrun.Cluster) {
		h := e.netClusterFor(opts)
		h.mu.Lock()
		defer h.mu.Unlock()
		return h, h.cl
	}

	good := JobSpec{Bench: "crc32", Backend: "net", Cores: 5, Seed: 42}
	if _, err := e.SubmitOpts(context.Background(), good, opts); err != nil {
		t.Fatal(err)
	}
	h1, cl1 := fleet()
	if cl1 == nil {
		t.Fatal("no fleet after the first job")
	}

	bad := JobSpec{Bench: "crc32", Backend: "net", Cores: 2}
	if _, err := e.SubmitOpts(context.Background(), bad, opts); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("cores: 2: err = %v, want the plan's worker shortfall", err)
	}
	if h, cl := fleet(); h != h1 || cl != cl1 {
		t.Fatalf("rejected spec replaced the fleet: handle %p→%p, cluster %p→%p", h1, h, cl1, cl)
	}

	before := e.Stats().PoolReuses
	good.Seed = 7
	if _, err := e.SubmitOpts(context.Background(), good, opts); err != nil {
		t.Fatalf("job after the rejected spec: %v", err)
	}
	if got := e.Stats().PoolReuses - before; got != 1 {
		t.Errorf("PoolReuses moved by %d on the third job, want 1 (warm fleet)", got)
	}
	if h, cl := fleet(); h != h1 || cl != cl1 {
		t.Errorf("third job ran on another fleet: handle %p→%p, cluster %p→%p", h1, h, cl1, cl)
	}
}
