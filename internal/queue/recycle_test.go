package queue

import (
	"fmt"
	"math/rand/v2"
	gonet "net"
	"runtime"
	"sync"
	"testing"
	"time"

	"dsmtx/internal/mpi"
	"dsmtx/internal/platform"
	"dsmtx/internal/platform/host"
	netplat "dsmtx/internal/platform/net"
	"dsmtx/internal/wire"
)

// Spent batches go back to their sender (the package comment's lifecycle).
// These tests pin the three things that makes safe: a batch is never read
// after it was recycled, a steady stream allocates nothing, and a batch that
// crossed daemons never reaches the sender's free list.

// TestRecycledBatchesStress streams numbered values between two host ranks
// with batches flushed every three items, and bumps the epoch on both ports
// mid-stream at a random point of every epoch, with part of the epoch still
// pending on the sender and part in flight. Each value encodes (epoch,
// index), and the consumer checks every one: within an epoch it must see a
// gap-free prefix 0, 1, 2, … of what was sent, and nothing of another epoch.
// A batch recycled while its items are still being read, or handed back to
// the sender before admit copied it, shows up as a wrong value.
func TestRecycledBatchesStress(t *testing.T) {
	const epochs, perEpoch = 20, 3000
	const tagCtl, tagAck = 101, 102
	const done = ^uint64(0)
	plat := host.New(2, nil)
	w := mpi.NewWorld(plat, mpi.DefaultCost())
	cfg := DefaultConfig()
	cfg.BatchBytes = 3 * 16
	q := New[uint64](w, "stress", 0, 1, 100, cfg, nil)

	var bad string // first wrong value; the consumer keeps the protocol going after it
	var seen uint64
	plat.Spawn("consumer", func(p platform.Proc) {
		comm := w.Attach(1, p)
		r := q.Receiver(comm)
		ep := comm.Endpoint()
		ctl := ep.Mailbox(0, tagCtl)
		epoch, next := uint64(0), uint64(0)
		check := func(vals []uint64) {
			for k, v := range vals {
				if k%16 == 0 {
					runtime.Gosched() // read slowly: let the producer reuse batches meanwhile
				}
				if e, i := v>>32, v&0xffffffff; bad == "" && (e != epoch || i != next) {
					bad = fmt.Sprintf("epoch/index %d/%d, want %d/%d", e, i, epoch, next)
				}
				next++
			}
		}
		for {
			if msg, ok := ctl.TryRecv(); ok {
				if msg.Payload.(uint64) == done {
					// Everything was sent before the marker: drain it and stop.
					for vals, ok := r.TryConsumeBatch(); ok; vals, ok = r.TryConsumeBatch() {
						check(vals)
					}
					seen = next
					return
				}
				epoch, next = msg.Payload.(uint64), 0
				r.Abort(epoch)
				ep.Send(0, tagAck, nil, 8)
				continue
			}
			if vals, ok := r.TryConsumeBatch(); ok {
				check(vals)
				continue
			}
			comm.Idle(0)
		}
	})
	plat.Spawn("producer", func(p platform.Proc) {
		comm := w.Attach(0, p)
		s := q.Sender(comm)
		ep := comm.Endpoint()
		rng := rand.New(rand.NewPCG(25, 1))
		for e := uint64(0); e < epochs; e++ {
			n := perEpoch
			if e < epochs-1 {
				n = 1 + rng.IntN(perEpoch-1) // abort mid-stream
			}
			for i := 0; i < n; i++ {
				s.Produce(e<<32 | uint64(i))
			}
			if e == epochs-1 {
				s.Flush()
				ep.Send(1, tagCtl, done, 8)
				return
			}
			ep.Send(1, tagCtl, e+1, 8)
			s.Abort(e + 1) // recycles the pending batch
			ep.Recv(p, 1, tagAck)
		}
	})
	if err := plat.Run(0); err != nil {
		t.Fatal(err)
	}
	if bad != "" {
		t.Fatalf("consumer read %s", bad)
	}
	if seen != perEpoch {
		t.Fatalf("last epoch delivered %d values, want %d", seen, perEpoch)
	}
	if len(q.free) == 0 {
		t.Fatal("no batch was recycled: the test exercised nothing")
	}
}

// TestHostRoundTripAllocFree pins the steady state: once the buffers have
// reached their size, a produce → flush → TryConsumeBatch round trip between
// two host ranks allocates nothing — the batch comes off the free list, the
// payload is a pointer, the receive buffer is the port's own.
func TestHostRoundTripAllocFree(t *testing.T) {
	const rounds, items, tagAck = 200, 64, 101
	plat := host.New(2, nil)
	w := mpi.NewWorld(plat, mpi.DefaultCost())
	q := New[uint64](w, "rt", 0, 1, 100, DefaultConfig(), nil) // 64 items: one batch per round
	var allocs float64
	plat.Spawn("consumer", func(p platform.Proc) {
		comm := w.Attach(1, p)
		r := q.Receiver(comm)
		// Two rounds more than measured: the producer's own warm-up and
		// AllocsPerRun's.
		for got := 0; got < (rounds+2)*items; {
			if vals, ok := r.TryConsumeBatch(); ok {
				if got += len(vals); got%items == 0 {
					comm.Endpoint().Send(0, tagAck, nil, 8)
				}
				continue
			}
			comm.Idle(0)
		}
	})
	plat.Spawn("producer", func(p platform.Proc) {
		comm := w.Attach(0, p)
		s := q.Sender(comm)
		ack := comm.Endpoint().Mailbox(1, tagAck)
		round := func() {
			for i := range items {
				s.Produce(uint64(i))
			}
			s.Flush()
			ack.Recv(p)
		}
		round()
		allocs = testing.AllocsPerRun(rounds, round)
	})
	if err := plat.Run(0); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state round trip allocated %.2f times, want 0", allocs)
	}
}

// wireKindTestBatch registers *batch[uint64] with the wire codec for the
// cross-daemon test (core registers the runtime's *batch[Entry]; this binary
// does not link core).
const wireKindTestBatch = 0x7e

func init() {
	wire.RegisterPayload(wireKindTestBatch, BatchPrototype[uint64](), "testbatch",
		func(e *wire.Encoder, v any) { EncodeBatch(e, v, func(e *wire.Encoder, x uint64) { e.U64(x) }) },
		func(d *wire.Decoder) any { return DecodeBatch(d, (*wire.Decoder).U64) })
}

// TestDecodeBatchKeepsOnlyWholeItems: a batch body cut short must fail to
// decode and keep exactly the items that arrived whole — never a zero item
// for the read that failed.
func TestDecodeBatchKeepsOnlyWholeItems(t *testing.T) {
	type cut struct{ count, whole, extra int } // extra: bytes of a partial item
	var cases []cut
	for _, count := range []int{1, 5} {
		for whole := range count {
			cases = append(cases, cut{count, whole, 0})
		}
	}
	cases = append(cases, cut{5, 2, 3})
	for _, c := range cases {
		var e wire.Encoder
		e.U64(9)
		e.Uvarint(64)
		e.Uvarint(uint64(c.count))
		for i := range c.whole {
			e.U64(100 + uint64(i))
		}
		e.Raw(make([]byte, c.extra))
		d := wire.NewDecoder(e.Bytes())
		b := DecodeBatch(d, (*wire.Decoder).U64).(*batch[uint64])
		if d.Err() == nil {
			t.Errorf("%+v: decoded without error", c)
		}
		if len(b.items) != c.whole {
			t.Errorf("%+v: kept %d items %v, want the %d whole ones", c, len(b.items), b.items, c.whole)
			continue
		}
		for i, v := range b.items {
			if v != 100+uint64(i) {
				t.Errorf("%+v: item %d = %d, want %d", c, i, v, 100+i)
			}
		}
	}
}

// TestCrossDaemonBatchNeverReturnsToSender runs a queue between two
// in-process net meshes, each daemon with its own copy of the Queue as the
// runtime builds it. The writer goroutine encodes a batch after Send has
// returned, so the sender must never see one again: every batch it flushes
// is a distinct one, its daemon's free list stays empty, and the decoded
// copies recycle into the receiving daemon's Queue instead.
func TestCrossDaemonBatchNeverReturnsToSender(t *testing.T) {
	const n, every = 5000, 7
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String(), ""}
	m0 := netplat.NewMesh(netplat.MeshConfig{JobID: 25, Self: 0, Addrs: addrs})
	m0.ServeListener(ln)
	m1 := netplat.NewMesh(netplat.MeshConfig{JobID: 25, Self: 1, Addrs: addrs})
	defer m0.Close()
	defer m1.Close()
	p0, err := m0.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m1.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BatchBytes = 1 << 30 // flush only when told to
	w0, w1 := mpi.NewWorld(p0, mpi.DefaultCost()), mpi.NewWorld(p1, mpi.DefaultCost())
	q0 := New[uint64](w0, "x", 0, 1, 100, cfg, nil) // the sender's daemon
	q1 := New[uint64](w1, "x", 0, 1, 100, cfg, nil) // the receiver's daemon

	flushed := map[*batch[uint64]]bool{}
	reused := 0
	p0.Spawn("producer", func(p platform.Proc) {
		s := q0.Sender(w0.Attach(0, p))
		for i := uint64(0); i < n; i++ {
			s.Produce(i)
			if i%every == every-1 || i == n-1 {
				if flushed[s.pending] {
					reused++
				}
				flushed[s.pending] = true
				s.Flush()
			}
		}
	})
	var bad error
	var got uint64
	p1.Spawn("consumer", func(p platform.Proc) {
		r := q1.Receiver(w1.Attach(1, p))
		// Poll against a deadline: a corrupted batch can lose values, and a
		// lost value must fail the test, not hang it.
		for deadline := time.Now().Add(30 * time.Second); got < n && time.Now().Before(deadline); {
			vs, ok := r.TryConsumeBatch()
			if !ok {
				runtime.Gosched()
				continue
			}
			for _, v := range vs {
				if v != got && bad == nil {
					bad = fmt.Errorf("value %d at position %d", v, got)
				}
				got++
			}
		}
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p0.Run(0) }()
	if err := p1.Run(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if bad != nil {
		t.Fatal(bad)
	}
	if got != n {
		t.Fatalf("received %d of %d values", got, n)
	}
	if reused != 0 {
		t.Fatalf("sender flushed a batch it had already sent %d times", reused)
	}
	if len(q0.free) != 0 {
		t.Fatalf("sender's free list holds %d batches, want 0", len(q0.free))
	}
	if len(q1.free) == 0 {
		t.Fatal("receiver recycled no decoded batch")
	}
}
