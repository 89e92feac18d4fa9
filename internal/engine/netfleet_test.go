package engine

import (
	"context"
	"encoding/json"
	"errors"
	gonet "net"
	"slices"
	"testing"

	"dsmtx/internal/netrun"
)

// TestNetFleetSurvivesRejectedSpec: a net spec the coordinator refuses
// before writing a frame (cores: 4 passes JobSpec.Validate — crc32 needs two
// workers — and leaves one of five daemons without a rank) must not cost the
// placement its warm fleet — the next job reuses the same cluster through the
// same handle — and Stats counts the fleet: one build when it is joined, one
// reuse per job that finds it up. The fleet is five in-process
// netrun.ServeLoop daemons joined via Options.NetJoin.
func TestNetFleetSurvivesRejectedSpec(t *testing.T) {
	addrs := make([]string, 5)
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
	netRes, err := e.SubmitOpts(context.Background(), good, opts)
	if err != nil {
		t.Fatal(err)
	}
	// One record on every backend: what a net job serves is what the same
	// job serves from host, plus the fleet's two fields.
	onHost := good
	onHost.Backend = "host"
	hostRes, err := e.Submit(context.Background(), onHost)
	if err != nil {
		t.Fatal(err)
	}
	want := append(jsonKeys(t, hostRes), "daemons", "mesh")
	slices.Sort(want)
	if got := jsonKeys(t, netRes); !slices.Equal(got, want) {
		t.Errorf("net result keys %v, want host's plus daemons and mesh: %v", got, want)
	}
	h1, cl1 := fleet()
	if cl1 == nil {
		t.Fatal("no fleet after the first job")
	}
	if st := e.Stats(); st.PoolBuilds != 1 || st.PoolReuses != 0 {
		t.Errorf("after the first job: %+v, want 1 build, 0 reuses", st)
	}

	bad := JobSpec{Bench: "crc32", Backend: "net", Cores: 4}
	if _, err := e.SubmitOpts(context.Background(), bad, opts); !errors.Is(err, netrun.ErrRejected) {
		t.Fatalf("cores: 4 on 5 daemons: err = %v, want netrun.ErrRejected", err)
	}
	if h, cl := fleet(); h != h1 || cl != cl1 {
		t.Fatalf("rejected spec replaced the fleet: handle %p→%p, cluster %p→%p", h1, h, cl1, cl)
	}

	good.Seed = 7
	if _, err := e.SubmitOpts(context.Background(), good, opts); err != nil {
		t.Fatalf("job after the rejected spec: %v", err)
	}
	if st := e.Stats(); st.PoolBuilds != 1 || st.PoolReuses != 2 {
		t.Errorf("after the third job: %+v, want 1 build, 2 reuses (the rejected job found the fleet up too)", st)
	}
	if h, cl := fleet(); h != h1 || cl != cl1 {
		t.Errorf("third job ran on another fleet: handle %p→%p, cluster %p→%p", h1, h, cl1, cl)
	}
}

// jsonKeys lists the top-level keys v marshals to, sorted.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
