package mpi

import (
	"testing"

	"dsmtx/internal/cluster"
	"dsmtx/internal/platform"
	"dsmtx/internal/sim"
)

func testConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	cfg.CoresPerNode = 2
	return cfg
}

func testWorld(k *sim.Kernel) *World {
	w, _ := testMachineWorld(k)
	return w
}

// testMachineWorld is testWorld that also returns the simulated machine.
func testMachineWorld(k *sim.Kernel) (*World, *cluster.Machine) {
	m := cluster.New(k, testConfig())
	return NewWorld(m, DefaultCost()), m
}

func TestSendChargesOverhead(t *testing.T) {
	k := sim.NewKernel()
	w := testWorld(k)
	var txDone platform.Time
	k.Spawn("rx", func(p *sim.Proc) { w.Attach(1, p).Recv(0, 1) })
	k.Spawn("tx", func(p *sim.Proc) {
		c := w.Attach(0, p)
		c.Send(1, 1, nil, 8)
		txDone = p.Now()
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// 500 instructions + 2 per-byte instructions at 3 GHz ≈ 167 ns.
	want := testConfig().InstrTime(502)
	if txDone != want {
		t.Fatalf("send completed at %v, want %v", txDone, want)
	}
}

func TestRecvChargesOverheadAfterArrival(t *testing.T) {
	k := sim.NewKernel()
	w := testWorld(k)
	var rxDone platform.Time
	k.Spawn("rx", func(p *sim.Proc) {
		w.Attach(1, p).Recv(0, 1)
		rxDone = p.Now()
	})
	k.Spawn("tx", func(p *sim.Proc) {
		w.Attach(0, p).Send(1, 1, nil, 8)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	// Arrival = send cost + wire; then the receiver pays its own overhead.
	wantMin := cfg.InstrTime(502) + cfg.InterNodeLatency + cfg.InstrTime(1290)
	if rxDone < wantMin {
		t.Fatalf("recv completed at %v, want >= %v", rxDone, wantMin)
	}
}

func TestIsendWaitCompletes(t *testing.T) {
	k := sim.NewKernel()
	w := testWorld(k)
	done := false
	k.Spawn("rx", func(p *sim.Proc) { w.Attach(1, p).Recv(0, 2) })
	k.Spawn("tx", func(p *sim.Proc) {
		c := w.Attach(0, p)
		req := c.Isend(1, 2, "data", 8)
		req.Wait()
		req.Wait() // idempotent
		done = true
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("Isend/Wait did not complete")
	}
}

func TestTryRecv(t *testing.T) {
	k := sim.NewKernel()
	w := testWorld(k)
	k.Spawn("rx", func(p *sim.Proc) {
		c := w.Attach(1, p)
		box := c.Endpoint().Mailbox(0, 5)
		if _, ok := c.TryRecvBox(box); ok {
			t.Error("TryRecvBox returned message before any send")
		}
		p.Advance(platform.Millisecond)
		start := p.Now()
		if _, ok := c.TryRecvBox(box); !ok {
			t.Error("TryRecvBox missed delivered message")
		}
		if p.Now() == start {
			t.Error("TryRecvBox charged no receive overhead")
		}
	})
	k.Spawn("tx", func(p *sim.Proc) { w.Attach(0, p).Send(1, 5, nil, 8) })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	k := sim.NewKernel()
	w := testWorld(k)
	ranks := []int{0, 1, 2, 3}
	var releases [4]platform.Time
	var maxArrival platform.Time
	for i, r := range ranks {
		k.Spawn("w", func(p *sim.Proc) {
			c := w.Attach(r, p)
			// The root arrives last: every other arrival reaches it before
			// it has registered anything.
			p.Advance(platform.Duration(len(ranks)-1-r) * 100 * platform.Microsecond)
			if p.Now() > maxArrival {
				maxArrival = p.Now()
			}
			c.Barrier(ranks)
			releases[i] = p.Now()
		})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, rel := range releases {
		if rel < maxArrival {
			t.Fatalf("rank %d released at %v before last arrival %v", i, rel, maxArrival)
		}
	}
}

// The paper's micro-measurement: fine-grained MPI sends are overhead-bound.
// Streaming 8-byte messages must yield single-digit-to-low-double-digit MB/s
// with the default cost model.
func TestFineGrainedMPIBandwidthIsLow(t *testing.T) {
	k := sim.NewKernel()
	w := testWorld(k)
	const n = 2000
	k.Spawn("rx", func(p *sim.Proc) {
		c := w.Attach(1, p)
		for i := 0; i < n; i++ {
			c.Recv(0, 1)
		}
	})
	k.Spawn("tx", func(p *sim.Proc) {
		c := w.Attach(0, p)
		for i := 0; i < n; i++ {
			c.Send(1, 1, nil, 8)
		}
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	mbps := float64(n*8) / k.Now().Seconds() / 1e6
	if mbps < 4 || mbps > 40 {
		t.Fatalf("fine-grained MPI bandwidth = %.1f MB/s, want single/low-double digits (paper: 8.1–13.1)", mbps)
	}
}
