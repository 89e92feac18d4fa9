package cluster

import (
	"testing"
	"testing/quick"

	"dsmtx/internal/faults"
	"dsmtx/internal/platform"
	"dsmtx/internal/sim"
)

// faultyMachine builds a machine with a compiled injector installed.
func faultyMachine(t *testing.T, plan faults.Plan) (*sim.Kernel, *Machine) {
	t.Helper()
	k := sim.NewKernel()
	m := New(k, testConfig())
	inj, err := faults.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableFaults(inj)
	return k, m
}

// TestReliableExactlyOnceInOrder is the reliable layer's contract: at a
// drop rate high enough to lose many transmissions and acks, every
// message still arrives exactly once and in send order.
func TestReliableExactlyOnceInOrder(t *testing.T) {
	const n = 400
	k, m := faultyMachine(t, faults.Plan{Seed: 11, DropRate: 0.2, AckDropRate: 0.2})
	var got []int
	k.Spawn("rx", func(p *sim.Proc) {
		for range n {
			msg := m.Endpoint(1).Recv(p, 0, 3)
			got = append(got, msg.Payload.(int))
		}
	})
	k.Spawn("tx", func(p *sim.Proc) {
		for i := range n {
			m.Endpoint(0).Send(1, 3, i, 64)
			p.Advance(sim.Duration(i % 5))
		}
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := range n {
		if got[i] != i {
			t.Fatalf("got[%d] = %d (out of order or duplicated)", i, got[i])
		}
	}
	s := m.Traffic()
	if s.DroppedMessages == 0 || s.RetransMessages == 0 || s.AckMessages == 0 {
		t.Fatalf("fault layer never engaged: %+v", s)
	}
	// Resilience traffic must stay inside the class-sum invariant.
	if s.QueueBytes+s.PageBytes+s.ControlBytes != s.Bytes {
		t.Fatalf("class bytes %d+%d+%d != total %d", s.QueueBytes, s.PageBytes, s.ControlBytes, s.Bytes)
	}
	if s.InterNodeBytes+s.IntraNodeBytes != s.Bytes {
		t.Fatalf("locality bytes %d+%d != total %d", s.InterNodeBytes, s.IntraNodeBytes, s.Bytes)
	}
}

// TestReliableIntraNodeUntouched: same-node traffic never takes the
// reliable path, so a pure drop plan cannot delay or duplicate it.
func TestReliableIntraNodeUntouched(t *testing.T) {
	k, m := faultyMachine(t, faults.Plan{Seed: 1, DropRate: 0.5})
	var arrival sim.Time
	k.Spawn("rx", func(p *sim.Proc) {
		m.Endpoint(4).Recv(p, 0, 1) // ranks 0 and 4 share node 0 (4 nodes x 2)
		arrival = p.Now()
	})
	k.Spawn("tx", func(p *sim.Proc) { m.Endpoint(0).Send(4, 1, nil, 0) })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if arrival != testConfig().IntraNodeLatency {
		t.Fatalf("intra-node arrival %v, want bare latency %v", arrival, testConfig().IntraNodeLatency)
	}
	if s := m.Traffic(); s.DroppedMessages != 0 || s.AckMessages != 0 {
		t.Fatalf("intra-node message engaged the reliable layer: %+v", s)
	}
}

// TestReliableDeterministic: two machines running the same traffic under
// the same plan agree on every virtual-time outcome.
func TestReliableDeterministic(t *testing.T) {
	run := func() (sim.Time, platform.TrafficStats) {
		k, m := faultyMachine(t, faults.Plan{Seed: 5, DropRate: 0.1, AckDropRate: 0.1, SpikeRate: 0.05, SpikeExtra: 30 * sim.Microsecond})
		k.Spawn("rx", func(p *sim.Proc) {
			for range 200 {
				m.Endpoint(1).Recv(p, 0, 3)
			}
		})
		k.Spawn("tx", func(p *sim.Proc) {
			for i := range 200 {
				m.Endpoint(0).Send(1, 3, i, 128)
				p.Advance(50)
			}
		})
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return k.Now(), m.Traffic()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("runs differ: %v/%v, %+v vs %+v", t1, t2, s1, s2)
	}
}

// TestLatencyFaultsDelayButPreserveOrder: a latency-only plan (no drops)
// keeps the plain path and MPI's non-overtaking guarantee.
func TestLatencyFaultsDelayButPreserveOrder(t *testing.T) {
	f := func(seed uint64) bool {
		k := sim.NewKernel()
		m := New(k, testConfig())
		inj, err := faults.Compile(faults.Plan{Seed: seed, SpikeRate: 0.3, SpikeExtra: 100 * sim.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		m.EnableFaults(inj)
		ok := true
		k.Spawn("rx", func(p *sim.Proc) {
			for i := range 50 {
				msg := m.Endpoint(1).Recv(p, 0, 3)
				if msg.Payload.(int) != i {
					ok = false
				}
			}
		})
		k.Spawn("tx", func(p *sim.Proc) {
			for i := range 50 {
				m.Endpoint(0).Send(1, 3, i, 8)
				p.Advance(10)
			}
		})
		if err := k.Run(0); err != nil {
			return false
		}
		return ok && m.Traffic().DroppedMessages == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedLinkSlowsDelivery: inside a degradation window the wire
// latency multiplies; outside it the link recovers.
func TestDegradedLinkSlowsDelivery(t *testing.T) {
	cfg := testConfig()
	k := sim.NewKernel()
	m := New(k, cfg)
	inj, err := faults.Compile(faults.Plan{
		Degrades: []faults.Degrade{{From: 0, Dur: 10 * sim.Microsecond, Factor: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.EnableFaults(inj)
	var inside, outside sim.Time
	k.Spawn("rx", func(p *sim.Proc) {
		m.Endpoint(1).Recv(p, 0, 1)
		inside = p.Now()
		m.Endpoint(1).Recv(p, 0, 1)
		outside = p.Now()
	})
	const gap = 20 * sim.Microsecond
	k.Spawn("tx", func(p *sim.Proc) {
		m.Endpoint(0).Send(1, 1, nil, 0) // departs at t=0, inside the window
		p.Advance(gap)                   // past the window
		m.Endpoint(0).Send(1, 1, nil, 0)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if inside != 5*cfg.InterNodeLatency {
		t.Fatalf("degraded delivery at %v, want %v", inside, 5*cfg.InterNodeLatency)
	}
	if outside != gap+cfg.InterNodeLatency {
		t.Fatalf("recovered delivery at %v, want %v", outside, gap+cfg.InterNodeLatency)
	}
}
