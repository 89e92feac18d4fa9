package queue

import (
	"testing"

	"dsmtx/internal/faults"
	"dsmtx/internal/sim"
)

// TestBatchesSurviveLossyLink: queue batches ride the cluster's reliable
// layer under fault injection — FIFO delivery holds at a drop rate that
// forces many retransmissions.
func TestBatchesSurviveLossyLink(t *testing.T) {
	const n = 2000
	k := sim.NewKernel()
	w, m := newMachineWorld(k)
	inj, err := faults.Compile(faults.Plan{Seed: 17, DropRate: 0.1, AckDropRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	m.EnableFaults(inj)
	q := New[uint64](w, "q", 0, 1, 100, DefaultConfig(), nil)
	var got []uint64
	k.Spawn("consumer", func(p *sim.Proc) {
		r := q.Receiver(w.Attach(1, p))
		for range n {
			got = append(got, r.Consume())
		}
	})
	k.Spawn("producer", func(p *sim.Proc) {
		s := q.Sender(w.Attach(0, p))
		for i := uint64(0); i < n; i++ {
			s.Produce(i)
		}
		s.Flush()
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if got[i] != i {
			t.Fatalf("got[%d] = %d", i, got[i])
		}
	}
	if s := w.Platform().Traffic(); s.RetransMessages == 0 {
		t.Fatalf("no retransmissions at 10%% drop: %+v", s)
	}
}
