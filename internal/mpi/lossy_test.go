package mpi

import (
	"testing"

	"dsmtx/internal/faults"
	"dsmtx/internal/sim"
)

// lossyWorld is testWorld with a fault injector on the machine.
func lossyWorld(t *testing.T, k *sim.Kernel, plan faults.Plan) *World {
	t.Helper()
	w, m := testMachineWorld(k)
	inj, err := faults.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableFaults(inj)
	return w
}

// TestLossyLinkPreservesMPISemantics: under heavy loss the MPI layer's
// contract is untouched — blocking receives complete, messages arrive
// exactly once per send, in order, and a barrier still releases everyone.
func TestLossyLinkPreservesMPISemantics(t *testing.T) {
	const n = 200
	k := sim.NewKernel()
	w := lossyWorld(t, k, faults.Plan{Seed: 3, DropRate: 0.15, AckDropRate: 0.15})
	ranks := []int{0, 1, 2, 3}
	var got []int
	released := 0
	k.Spawn("rx", func(p *sim.Proc) {
		c := w.Attach(1, p)
		for range n {
			msg := c.Recv(0, 7)
			got = append(got, msg.Payload.(int))
		}
		c.Barrier(ranks)
		released++
	})
	k.Spawn("tx", func(p *sim.Proc) {
		c := w.Attach(0, p)
		c.RegisterBarrierMailboxes() // rank 0 is the barrier root
		for i := range n {
			c.Send(1, 7, i, 32)
		}
		c.Barrier(ranks)
		released++
	})
	for _, r := range []int{2, 3} {
		k.Spawn("peer", func(p *sim.Proc) {
			w.Attach(r, p).Barrier(ranks)
			released++
		})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d: order or exactly-once violated", i, v)
		}
	}
	if released != 4 {
		t.Fatalf("%d ranks left the barrier, want 4", released)
	}
	if s := w.Platform().Traffic(); s.RetransMessages == 0 {
		t.Fatalf("plan never forced a retransmission: %+v", s)
	}
}
