package queue

import (
	"testing"
	"testing/quick"

	"dsmtx/internal/cluster"
	"dsmtx/internal/mpi"
	"dsmtx/internal/platform"
	"dsmtx/internal/sim"
)

func newWorld(k *sim.Kernel) *mpi.World {
	w, _ := newMachineWorld(k)
	return w
}

// newMachineWorld is newWorld that also returns the simulated machine.
func newMachineWorld(k *sim.Kernel) (*mpi.World, *cluster.Machine) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	cfg.CoresPerNode = 2
	m := cluster.New(k, cfg)
	return mpi.NewWorld(m, mpi.DefaultCost()), m
}

// run wires a producer proc at rank 0 and consumer proc at rank 1 around a
// queue, executes the kernel and returns the simulated machine.
func run(t *testing.T, cfg Config, producer func(*SendPort[uint64]), consumer func(*RecvPort[uint64])) *cluster.Machine {
	t.Helper()
	k := sim.NewKernel()
	w, m := newMachineWorld(k)
	q := New[uint64](w, "q", 0, 1, 100, cfg, nil)
	k.Spawn("consumer", func(p *sim.Proc) {
		consumer(q.Receiver(w.Attach(1, p)))
	})
	k.Spawn("producer", func(p *sim.Proc) {
		producer(q.Sender(w.Attach(0, p)))
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFIFODelivery(t *testing.T) {
	const n = 1000
	var got []uint64
	run(t, DefaultConfig(),
		func(s *SendPort[uint64]) {
			for i := uint64(0); i < n; i++ {
				s.Produce(i)
			}
			s.Flush()
		},
		func(r *RecvPort[uint64]) {
			for i := 0; i < n; i++ {
				got = append(got, r.Consume())
			}
		})
	for i := uint64(0); i < n; i++ {
		if got[i] != i {
			t.Fatalf("got[%d] = %d", i, got[i])
		}
	}
}

func TestBatchingReducesMessages(t *testing.T) {
	const n = 512
	count := func(cfg Config) uint64 {
		m := run(t, cfg,
			func(s *SendPort[uint64]) {
				for i := uint64(0); i < n; i++ {
					s.Produce(i)
				}
				s.Flush()
			},
			func(r *RecvPort[uint64]) {
				for i := 0; i < n; i++ {
					r.Consume()
				}
			})
		return m.Traffic().QueueMessages
	}
	opt := count(DefaultConfig())                 // 16-byte items, 4096-byte batches
	unopt := count(DefaultConfig().Unoptimized()) // flush every produce
	if unopt != n {
		t.Fatalf("unoptimized batches = %d, want %d", unopt, n)
	}
	if opt != n/256 {
		t.Fatalf("optimized batches = %d, want %d", opt, n/256)
	}
}

// The headline §5.3 measurement: the batched queue must sustain well over an
// order of magnitude more bandwidth than per-datum sends.
func TestQueueBandwidthVsRawMPI(t *testing.T) {
	const n = 20000
	bandwidth := func(cfg Config) float64 {
		m := run(t, cfg,
			func(s *SendPort[uint64]) {
				for i := uint64(0); i < n; i++ {
					s.Produce(i)
				}
				s.Flush()
			},
			func(r *RecvPort[uint64]) {
				for i := 0; i < n; i++ {
					r.Consume()
				}
			})
		return float64(n*8) / m.Now().Seconds() / 1e6 // MB/s of payload words
	}
	opt := bandwidth(DefaultConfig())
	unopt := bandwidth(DefaultConfig().Unoptimized())
	if opt < 100 {
		t.Errorf("optimized queue bandwidth = %.1f MB/s, want hundreds (paper: 480.7)", opt)
	}
	if unopt > 30 {
		t.Errorf("unoptimized bandwidth = %.1f MB/s, want low double digits (paper: 8.1-13.1)", unopt)
	}
	if opt < 20*unopt {
		t.Errorf("optimized/unoptimized = %.1f, want >= 20x (paper: ~37x)", opt/unopt)
	}
}

func TestEpochDiscardsStaleBatches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchBytes = 16
	run(t, cfg,
		func(s *SendPort[uint64]) {
			s.Produce(1) // epoch 0 — will be stale by the time it is read
			s.Flush()
			s.comm.Proc().Advance(platform.Millisecond)
			s.Abort(1)
			s.Produce(2) // epoch 1
			s.Flush()
		},
		func(r *RecvPort[uint64]) {
			r.comm.Proc().Advance(500 * platform.Microsecond)
			r.Abort(1) // recovery: advance epoch before consuming
			if got := r.Consume(); got != 2 {
				t.Errorf("consumed %d from stale epoch, want 2", got)
			}
		})
}

func TestAbortDiscardsPendingProduce(t *testing.T) {
	run(t, DefaultConfig(),
		func(s *SendPort[uint64]) {
			s.Produce(11)
			s.Abort(1)
			s.Produce(22)
			s.Flush()
		},
		func(r *RecvPort[uint64]) {
			r.Abort(1)
			r.comm.Proc().Advance(platform.Millisecond)
			if got, ok := r.TryNext(); !ok || got != 22 {
				t.Errorf("TryNext = %v, %v; want 22, true", got, ok)
			}
			if got, ok := r.TryNext(); ok {
				t.Errorf("TryNext = %v after the only value", got)
			}
		})
}

func TestTryConsume(t *testing.T) {
	run(t, DefaultConfig(),
		func(s *SendPort[uint64]) {
			s.comm.Proc().Advance(platform.Millisecond)
			s.Produce(7)
			s.Flush()
		},
		func(r *RecvPort[uint64]) {
			if _, ok := r.TryNext(); ok {
				t.Error("TryNext returned a value before producer ran")
			}
			r.comm.Proc().Advance(2 * platform.Millisecond)
			if got, ok := r.TryNext(); !ok || got != 7 {
				t.Errorf("TryNext = %v, %v; want 7, true", got, ok)
			}
		})
}

// TestTryNextChargesPerBatch pins the one receive path: TryNext returns
// values in FIFO order across batch boundaries, skips a stale-epoch batch,
// and charges the consumer one Recv per message it takes plus one
// ConsumeInstr × items per batch it admits, all on the call that admits the
// batch. Abort drops what is still buffered.
func TestTryNextChargesPerBatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchBytes = 1 << 20 // flush only when told to
	run(t, cfg,
		func(s *SendPort[uint64]) {
			flush := func(epoch uint64, vals ...uint64) {
				s.Abort(epoch)
				for _, v := range vals {
					s.Produce(v)
				}
				s.Flush()
			}
			flush(1, 1, 2)
			flush(0, 99) // a sender that has not seen the recovery yet
			flush(1, 3)
			flush(1, 4, 5, 6)
		},
		func(r *RecvPort[uint64]) {
			r.Abort(1)
			p, w := r.comm.Proc(), r.q.world
			p.Advance(platform.Millisecond) // every batch has landed
			recv := func(items int64) platform.Duration {
				c := mpi.DefaultCost()
				return w.InstrTime(c.Recv + int64(float64(items*16+batchHeaderBytes)*c.PerByte))
			}
			consume := func(items int64) platform.Duration { return w.InstrTime(cfg.ConsumeInstr * items) }
			want := []struct {
				v      uint64
				charge platform.Duration
			}{
				{1, recv(2) + consume(2)},
				{2, 0},
				{3, recv(1) + recv(1) + consume(1)}, // the stale batch, then [3]
				{4, recv(3) + consume(3)},
			}
			for _, c := range want {
				start := p.Now()
				v, ok := r.TryNext()
				if !ok || v != c.v {
					t.Fatalf("TryNext = %d, %v; want %d, true", v, ok, c.v)
				}
				if got := p.Now() - start; got != c.charge {
					t.Errorf("TryNext returning %d charged %v, want %v", v, got, c.charge)
				}
			}
			r.Abort(2)
			start := p.Now()
			if v, ok := r.TryNext(); ok {
				t.Errorf("TryNext = %d after Abort, want nothing buffered", v)
			}
			if got := p.Now() - start; got != 0 {
				t.Errorf("an empty TryNext charged %v", got)
			}
		})
}

func TestPortRankValidation(t *testing.T) {
	k := sim.NewKernel()
	w := newWorld(k)
	q := New[uint64](w, "q", 0, 1, 100, DefaultConfig(), nil)
	k.Spawn("bad", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Sender on wrong rank did not panic")
			}
		}()
		q.Sender(w.Attach(1, p))
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

// Property: for any payload sequence and any batch size, delivery is exact
// and in order.
func TestDeliveryProperty(t *testing.T) {
	f := func(vals []uint64, batchKB uint8) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 300 {
			vals = vals[:300]
		}
		cfg := DefaultConfig()
		cfg.BatchBytes = (int(batchKB%8) + 1) * 64
		k := sim.NewKernel()
		w := newWorld(k)
		q := New[uint64](w, "q", 0, 1, 100, cfg, nil)
		ok := true
		k.Spawn("consumer", func(p *sim.Proc) {
			r := q.Receiver(w.Attach(1, p))
			for _, want := range vals {
				if got := r.Consume(); got != want {
					ok = false
				}
			}
		})
		k.Spawn("producer", func(p *sim.Proc) {
			s := q.Sender(w.Attach(0, p))
			for _, v := range vals {
				s.Produce(v)
			}
			s.Flush()
		})
		if err := k.Run(0); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
