package host

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"dsmtx/internal/platform"
	"dsmtx/internal/trace"
)

func testBox(t *testing.T) *mailbox {
	t.Helper()
	h := New(2, nil)
	return h.endpoint(1).Mailbox(0, 1).(*mailbox)
}

// TestRingWraparound pins the consumer's slice swap: messages enqueued while
// the consumer is part-way through its swapped-out slice arrive after that
// slice, in order, across many swaps. Each round enqueues a few, consumes
// fewer, and enqueues more, so every swap hands over a backlog that straddles
// the consumer's position.
func TestRingWraparound(t *testing.T) {
	b := testBox(t)
	sent, next := 0, 0
	recv := func(k int) {
		t.Helper()
		for ; k > 0; k-- {
			msg, ok := b.tryDequeue()
			if !ok {
				t.Fatalf("box dry at %d of %d sent", next, sent)
			}
			if msg.Bytes != next {
				t.Fatalf("dequeued %d, want %d", msg.Bytes, next)
			}
			next++
		}
	}
	for round := 1; round <= 200; round++ {
		for i := 0; i < round%7+2; i++ {
			b.enqueue(platform.Message{Bytes: sent})
			sent++
		}
		recv((sent - next + 1) / 2) // stop part-way through the backlog
		if got, want := b.Depth(), sent-next; got != want {
			t.Fatalf("round %d: Depth = %d, want %d", round, got, want)
		}
	}
	recv(sent - next)
	if next != sent {
		t.Fatalf("consumed %d messages, want %d", next, sent)
	}
}

// TestRingEmptyAndFullBoundaries pins the two boundary behaviours: an empty
// box reports no message, and a backlog queued with no consumer running is
// kept whole and in order however long it grows. A drained box is empty
// again, reports depth 0, and serves the next message at once.
func TestRingEmptyAndFullBoundaries(t *testing.T) {
	b := testBox(t)
	if _, ok := b.tryDequeue(); ok {
		t.Fatal("empty box produced a message")
	}
	const total = 1000
	for i := 0; i < total; i++ {
		b.enqueue(platform.Message{Bytes: i})
	}
	if b.Depth() != total {
		t.Fatalf("backlog depth %d, want %d", b.Depth(), total)
	}
	for i := 0; i < total; i++ {
		msg, ok := b.tryDequeue()
		if !ok {
			t.Fatalf("box dry after %d of %d messages", i, total)
		}
		if msg.Bytes != i {
			t.Fatalf("dequeued %d at position %d", msg.Bytes, i)
		}
	}
	if _, ok := b.tryDequeue(); ok {
		t.Fatal("drained box produced a message")
	}
	if b.Depth() != 0 {
		t.Fatalf("drained box reports depth %d", b.Depth())
	}
	b.enqueue(platform.Message{Bytes: 7})
	if msg, ok := b.tryDequeue(); !ok || msg.Bytes != 7 {
		t.Fatalf("enqueue after drain: %+v ok=%v", msg, ok)
	}
}

// TestMailboxBatchDrain drains a backlog with TryRecv across a swap
// boundary, in order: the unread rest of the consumer's slice, then
// everything producers queued after the swap that produced it.
func TestMailboxBatchDrain(t *testing.T) {
	b := testBox(t)
	const total = 300
	for i := 0; i < total/2; i++ {
		b.enqueue(platform.Message{Bytes: i})
	}
	for i := 0; i < 10; i++ { // swap once, and read part of the slice
		if msg, ok := b.TryRecv(); !ok || msg.Bytes != i {
			t.Fatalf("dequeue %d: %+v ok=%v", i, msg, ok)
		}
	}
	for i := total / 2; i < total; i++ {
		b.enqueue(platform.Message{Bytes: i})
	}
	got := 10
	for msg, ok := b.TryRecv(); ok; msg, ok = b.TryRecv() {
		if msg.Bytes != got {
			t.Fatalf("drain[%d] = %d, want %d", got, msg.Bytes, got)
		}
		got++
	}
	if got != total {
		t.Fatalf("drained %d, want %d", got, total)
	}
}

// TestEarlyTrafficOrder delivers from several sources before the receiver
// registers the tag: all of it waits in the tag's one box, and each
// source's messages come out in send order (cross-source order is
// unspecified).
func TestEarlyTrafficOrder(t *testing.T) {
	h := New(4, nil)
	const perSource = 300
	for i := 0; i < perSource; i++ {
		for src := 0; src < 3; src++ {
			h.Endpoint(src).Send(3, 9, nil, i)
		}
	}
	box := h.Endpoint(3).Mailbox(platform.AnySource, 9)
	nextFrom := map[int]int{}
	n := 0
	for {
		msg, ok := box.TryRecv()
		if !ok {
			break
		}
		if msg.Bytes != nextFrom[msg.From] {
			t.Fatalf("source %d delivered %d, want %d", msg.From, msg.Bytes, nextFrom[msg.From])
		}
		nextFrom[msg.From]++
		n++
	}
	if n != 3*perSource {
		t.Fatalf("received %d messages, want %d", n, 3*perSource)
	}
}

// TestMailboxMultiProducerStress hammers one mailbox from many concurrent
// producers while the consumer drains under the blocking Recv path; with
// -race this is the data-race audit of the slice swap and the park/wake
// machinery. Per-producer FIFO must hold across every swap.
func TestMailboxMultiProducerStress(t *testing.T) {
	const producers = 8
	perProducer := 20000
	if testing.Short() {
		perProducer = 2000
	}
	h := New(producers+1, nil)
	box := h.Endpoint(producers).Mailbox(platform.AnySource, 5)
	var wg sync.WaitGroup
	for src := 0; src < producers; src++ {
		wg.Add(1)
		h.Spawn(fmt.Sprintf("producer%d", src), func(p platform.Proc) {
			defer wg.Done()
			ep := h.Endpoint(src)
			for i := 0; i < perProducer; i++ {
				ep.Send(producers, 5, nil, i)
			}
		})
	}
	var consumeErr error
	h.Spawn("consumer", func(p platform.Proc) {
		nextFrom := make([]int, producers)
		for n := 0; n < producers*perProducer; n++ {
			msg, _ := box.Recv(p)
			if msg.Bytes != nextFrom[msg.From] {
				consumeErr = fmt.Errorf("source %d delivered %d, want %d (message %d)",
					msg.From, msg.Bytes, nextFrom[msg.From], n)
				return
			}
			nextFrom[msg.From]++
		}
	})
	if err := h.Run(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if consumeErr != nil {
		t.Fatal(consumeErr)
	}
	if msg, ok := box.TryRecv(); ok {
		t.Fatalf("stray message after full consumption: %+v", msg)
	}
}

// TestMailboxCountersStorm drives an 8-producer storm into one unconsumed
// mailbox with the delivery telemetry attached, then drains it
// single-threaded. The counters must be exact — every send is one enqueue
// and one dequeue — and per-producer FIFO must hold across the one swap
// that hands the whole backlog to the consumer. Under -race this doubles as
// the data-race audit of the counter hooks.
func TestMailboxCountersStorm(t *testing.T) {
	const producers = 8
	perProducer := 4000
	if testing.Short() {
		perProducer = 500
	}
	h := New(producers+1, nil)
	tr := trace.NewMetricsOnly()
	h.SetTracer(tr)
	box := h.Endpoint(producers).Mailbox(platform.AnySource, 5)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for src := 0; src < producers; src++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ep := h.Endpoint(src)
			for i := 0; i < perProducer; i++ {
				ep.Send(producers, 5, nil, i)
			}
		}()
	}
	close(start)
	wg.Wait()

	total := uint64(producers * perProducer)
	nextFrom := make([]int, producers)
	for n := uint64(0); n < total; n++ {
		msg, ok := box.TryRecv()
		if !ok {
			t.Fatalf("backlog dry after %d of %d messages", n, total)
		}
		if msg.Bytes != nextFrom[msg.From] {
			t.Fatalf("source %d delivered %d, want %d", msg.From, msg.Bytes, nextFrom[msg.From])
		}
		nextFrom[msg.From]++
	}
	if msg, ok := box.TryRecv(); ok {
		t.Fatalf("stray message after full drain: %+v", msg)
	}

	m := tr.Metrics()
	enq := m.Counter("host.ring.enqueue").Value()
	deq := m.Counter("host.ring.dequeue").Value()
	if enq != total || deq != total {
		t.Errorf("enqueue %d, dequeue %d, want both = %d sends", enq, deq, total)
	}
	if hw := m.Gauge("host.ring.depth").Max(); hw != int64(total) {
		t.Errorf("depth high-water = %d, want %d (nothing was consumed)", hw, total)
	}
}

// TestInstrumentedRingOpsAllocFree pins the instrumented hot path at zero
// allocations: attaching the tracer must cost counters' atomic adds only,
// never a heap allocation, on the enqueue/dequeue cycle. In steady state
// the two slices the consumer swaps reuse their arrays.
func TestInstrumentedRingOpsAllocFree(t *testing.T) {
	h := New(2, nil)
	h.SetTracer(trace.NewMetricsOnly())
	box := h.Endpoint(1).Mailbox(0, 1).(*mailbox)
	allocs := testing.AllocsPerRun(1000, func() {
		box.enqueue(platform.Message{From: 0, Tag: 1})
		if _, ok := box.tryDequeue(); !ok {
			t.Fatal("enqueued message not dequeued")
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented enqueue/dequeue allocates %.1f per op, want 0", allocs)
	}
}

// TestMailboxParkWake forces the consumer past its spin budget so the
// park/wake handshake (not just opportunistic polling) moves the message.
func TestMailboxParkWake(t *testing.T) {
	h := New(2, nil)
	box := h.Endpoint(1).Mailbox(0, 2)
	release := make(chan struct{})
	var got platform.Message
	h.Spawn("receiver", func(p platform.Proc) {
		close(release) // receiver is live; it will exhaust its spins and park
		got, _ = box.Recv(p)
	})
	h.Spawn("sender", func(p platform.Proc) {
		<-release
		// Give the receiver time to burn its spin budget and park. Not
		// deterministic, but both outcomes (wake from park, last-poll catch)
		// must deliver; under -race and repeated CI runs the parked path is
		// exercised with overwhelming probability.
		for i := 0; i < 10000; i++ {
			runtime.Gosched()
		}
		h.Endpoint(0).Send(1, 2, "wake", 4)
	})
	if err := h.Run(0); err != nil {
		t.Fatal(err)
	}
	if got.Payload != "wake" {
		t.Fatalf("received %+v", got)
	}
}

// BenchmarkMailbox measures the mailbox layer alone: P producer goroutines
// send b.N messages in total into one any-source box, and one consumer
// drains them either as a queue port does (poll: TryRecv until the box is
// empty, Idle when it is) or one blocking Recv at a time. ns/op is per
// message, end to end.
func BenchmarkMailbox(b *testing.B) {
	for _, producers := range []int{1, 4} {
		for _, mode := range []string{"poll", "recv"} {
			b.Run(fmt.Sprintf("%dto1/%s", producers, mode), func(b *testing.B) {
				h := New(producers+1, nil)
				ep := h.Endpoint(producers)
				box := ep.Mailbox(platform.AnySource, 1)
				b.ResetTimer()
				for src := 0; src < producers; src++ {
					n := b.N / producers
					if src < b.N%producers {
						n++
					}
					go func() {
						pep := h.Endpoint(src)
						for i := 0; i < n; i++ {
							pep.Send(producers, 1, nil, 8)
						}
					}()
				}
				for got := 0; got < b.N; {
					if mode == "recv" {
						box.Recv(nil)
						got++
						continue
					}
					if _, ok := box.TryRecv(); !ok {
						ep.Idle(nil, 0)
						continue
					}
					got++
				}
			})
		}
	}
}
