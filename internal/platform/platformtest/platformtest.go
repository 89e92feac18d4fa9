// Package platformtest is the delivery conformance suite shared by every
// concurrent platform backend. A backend adapts itself to the World
// interface — producer endpoints, a consumer rank, and the consumer-side
// delivery metrics — and the suite pins the contracts DSMTX's protocol
// correctness rests on:
//
//   - per-producer FIFO: messages from one rank arrive in send order, even
//     across the consumer's slice swaps and (on net) the TCP framing;
//   - early traffic: messages delivered before the consumer registers the
//     tag's mailbox wait in the tag's one box, none lost and each
//     producer's in send order;
//   - counter algebra: every message is enqueued exactly once and dequeued
//     exactly once;
//   - payload hand-off: a received payload is the receiver's to keep and
//     modify — no later delivery reuses its memory (see Endpoint.Send);
//   - idle wait: a TryRecv + Endpoint.Idle poll loop sees every delivery to
//     any of its mailboxes whether it is spinning or parked (no lost
//     wake-up), parks are counted with the blocking-Recv metrics, and a
//     platform failure unwinds a parked poller.
//
// The host backend runs the suite over in-process mailboxes; the net
// backend runs it with producers in one mesh and the consumer in another,
// so the same assertions audit the TCP framing and the reader's injection
// into the very same mailboxes.
package platformtest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dsmtx/internal/platform"
	"dsmtx/internal/trace"
)

// World is one delivery domain under test: some producer ranks, one
// consumer rank, and the delivery-layer metrics on the consumer side.
type World interface {
	// Producers reports the number of producer ranks, numbered 0..n-1.
	Producers() int
	// ConsumerRank reports the rank producers send to.
	ConsumerRank() int
	// ProducerEndpoint returns producer rank i's endpoint. Sends must be
	// safe from bare goroutines (the host contract).
	ProducerEndpoint(i int) platform.Endpoint
	// ConsumerEndpoint returns the consumer rank's endpoint, for mailbox
	// registration and draining.
	ConsumerEndpoint() platform.Endpoint
	// SpawnConsumer registers fn as the consumer process; Run drives it.
	SpawnConsumer(fn func(p platform.Proc))
	// Run executes spawned processes to completion.
	Run() error
	// Abort fails the consumer's platform from outside any process.
	Abort(err error)
	// Tracer exposes the consumer side's metrics registry (the suite
	// attaches no tracer itself; the World must wire one in).
	Tracer() *trace.Tracer
}

// Factory builds a fresh World with the given producer count. Each subtest
// gets its own world; the factory registers any cleanup on t.
type Factory func(t *testing.T, producers int) World

// Run executes the full conformance suite against the backend.
func Run(t *testing.T, factory Factory) {
	t.Run("FIFOPerProducerStorm", func(t *testing.T) { fifoStorm(t, factory) })
	t.Run("AnySourceBatchDrain", func(t *testing.T) { batchDrain(t, factory) })
	t.Run("CounterAlgebra", func(t *testing.T) { counterAlgebra(t, factory) })
	t.Run("IdleWait", func(t *testing.T) { idleWait(t, factory) })
	t.Run("IdlePingPong", func(t *testing.T) { idlePingPong(t, factory) })
	t.Run("IdleAbort", func(t *testing.T) { idleAbort(t, factory) })
}

// fifoStorm hammers the consumer from 8 concurrent producers while a
// blocking consumer drains; per-producer FIFO must hold across mailbox
// swaps and any transport reordering hazards. Each payload is a fresh
// []byte the consumer overwrites and keeps: all must still hold the
// consumer's bytes at the end, which a transport recycling a delivered
// buffer for a later message would break (the receiver half of
// Endpoint.Send's hand-off rule). Under -race this is the data-race audit
// of the whole delivery path, the sender's last write to a payload against
// the receiver's first included.
func fifoStorm(t *testing.T, factory Factory) {
	const producers = 8
	perProducer := 4000
	if testing.Short() {
		perProducer = 500
	}
	w := factory(t, producers)
	dst := w.ConsumerRank()
	box := w.ConsumerEndpoint().Mailbox(platform.AnySource, 5)
	var wg sync.WaitGroup
	for src := 0; src < producers; src++ {
		src := src
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := w.ProducerEndpoint(src)
			for i := 0; i < perProducer; i++ {
				ep.Send(dst, 5, binary.LittleEndian.AppendUint64(nil, uint64(i)), 8)
			}
		}()
	}
	var consumeErr error
	w.SpawnConsumer(func(p platform.Proc) {
		const taken = ^uint64(0) // the consumer's overwrite; no sender sends it
		nextFrom := make([]uint64, producers)
		kept := make([][]byte, 0, producers*perProducer)
		for n := 0; n < producers*perProducer; n++ {
			msg, _ := box.Recv(p)
			b := msg.Payload.([]byte)
			if got := binary.LittleEndian.Uint64(b); got != nextFrom[msg.From] {
				consumeErr = fmt.Errorf("source %d delivered %d, want %d (message %d)",
					msg.From, got, nextFrom[msg.From], n)
				return
			}
			nextFrom[msg.From]++
			binary.LittleEndian.PutUint64(b, taken)
			kept = append(kept, b)
		}
		for n, b := range kept {
			if binary.LittleEndian.Uint64(b) != taken {
				consumeErr = fmt.Errorf("payload %d changed after the consumer took it: %x", n, b)
				return
			}
		}
	})
	if err := w.Run(); err != nil {
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

// batchDrain sends the whole load before the consumer registers the tag's
// mailbox, so every message waits in the tag's one box, then drains it with
// a TryRecv loop. Nothing may be lost, and each source's messages must come
// out in send order.
func batchDrain(t *testing.T, factory Factory) {
	const producers = 3
	const perProducer = 300
	w := factory(t, producers)
	dst := w.ConsumerRank()
	var wg sync.WaitGroup
	for src := 0; src < producers; src++ {
		src := src
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := w.ProducerEndpoint(src)
			for i := 0; i < perProducer; i++ {
				ep.Send(dst, 9, uint64(i), 8)
			}
		}()
	}
	wg.Wait()
	total := uint64(producers * perProducer)
	waitDelivered(t, w, total)

	box := w.ConsumerEndpoint().Mailbox(platform.AnySource, 9)
	nextFrom := make([]uint64, producers)
	var got uint64
	for msg, ok := box.TryRecv(); ok; msg, ok = box.TryRecv() {
		if msg.Payload.(uint64) != nextFrom[msg.From] {
			t.Fatalf("drain[%d]: source %d delivered %d, want %d", got, msg.From, msg.Payload, nextFrom[msg.From])
		}
		nextFrom[msg.From]++
		got++
	}
	if got != total {
		t.Fatalf("drained %d, want %d", got, total)
	}
}

// counterAlgebra drives a storm into an unconsumed mailbox, then drains it
// single-threaded and checks per-producer FIFO and that the delivery
// counters close exactly: every send enqueues once and dequeues once.
func counterAlgebra(t *testing.T, factory Factory) {
	const producers = 8
	perProducer := 2000
	if testing.Short() {
		perProducer = 500
	}
	w := factory(t, producers)
	dst := w.ConsumerRank()
	box := w.ConsumerEndpoint().Mailbox(platform.AnySource, 5)
	var wg sync.WaitGroup
	for src := 0; src < producers; src++ {
		src := src
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := w.ProducerEndpoint(src)
			for i := 0; i < perProducer; i++ {
				ep.Send(dst, 5, uint64(i), 8)
			}
		}()
	}
	wg.Wait()
	total := uint64(producers * perProducer)
	waitDelivered(t, w, total)

	nextFrom := make([]uint64, producers)
	for n := uint64(0); n < total; n++ {
		msg, ok := box.TryRecv()
		if !ok {
			t.Fatalf("backlog dry after %d of %d messages", n, total)
		}
		if msg.Payload.(uint64) != nextFrom[msg.From] {
			t.Fatalf("source %d delivered %d, want %d", msg.From, msg.Payload, nextFrom[msg.From])
		}
		nextFrom[msg.From]++
	}
	if msg, ok := box.TryRecv(); ok {
		t.Fatalf("stray message after full drain: %+v", msg)
	}

	m := w.Tracer().Metrics()
	enq := m.Counter("host.ring.enqueue").Value()
	deq := m.Counter("host.ring.dequeue").Value()
	if enq != total || deq != total {
		t.Errorf("enqueue %d, dequeue %d, want both = %d sends", enq, deq, total)
	}
}

// idleWait polls two mailboxes with TryRecv + Idle while one producer
// streams with gaps of one Gosched — far inside Idle's spin budget of a few
// dozen yields — and then another sends with 2 ms gaps, far past it: every
// message must arrive in order on a tag the loop is not told about in
// advance, the long gaps must show up as counted parks, and every park must
// have been ended by a wake.
func idleWait(t *testing.T, factory Factory) {
	const fast, slow = 2000, 20
	w := factory(t, 2)
	dst := w.ConsumerRank()
	ep := w.ConsumerEndpoint()
	boxes := [2]platform.Mailbox{ep.Mailbox(0, 5), ep.Mailbox(1, 6)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < fast; i++ {
			w.ProducerEndpoint(0).Send(dst, 5, uint64(i), 8)
			runtime.Gosched()
		}
		for i := 0; i < slow; i++ {
			time.Sleep(2 * time.Millisecond)
			w.ProducerEndpoint(1).Send(dst, 6, uint64(i), 8)
		}
	}()
	var consumeErr error
	w.SpawnConsumer(func(p platform.Proc) {
		var next [2]uint64
		for next != [2]uint64{fast, slow} {
			progressed := false
			for k, box := range boxes {
				for msg, ok := box.TryRecv(); ok; msg, ok = box.TryRecv() {
					if msg.Payload.(uint64) != next[k] {
						consumeErr = fmt.Errorf("tag %d delivered %d, want %d", msg.Tag, msg.Payload, next[k])
						return
					}
					next[k]++
					progressed = true
				}
			}
			if !progressed {
				ep.Idle(p, 0)
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if consumeErr != nil {
		t.Fatal(consumeErr)
	}
	m := w.Tracer().Metrics()
	parks, wakes := m.Counter("host.recv.park").Value(), m.Counter("host.recv.wake").Value()
	if parks == 0 {
		t.Errorf("host.recv.park = 0 across %d gaps of 2ms: idle waits are not parking (or not counted)", slow)
	}
	if wakes < parks {
		t.Errorf("host.recv.wake = %d < host.recv.park = %d: a park ended without a wake", wakes, parks)
	}
}

// idlePingPong bounces one message between a bare pinger and a consumer
// that waits with TryRecv + Idle, for 10^5 rounds or five seconds (over TCP
// on a loaded box a round trip is slow), whichever ends first; a lost
// wake-up hangs the test, and the go test timeout then dumps the parked
// poller. Most rounds are answered inside the spin budget; every thousandth
// the pinger dawdles past it so the park/wake handshake is crossed too.
// Under -race this is the data-race audit of the idle eventcount.
func idlePingPong(t *testing.T, factory Factory) {
	const rounds = 100000
	w := factory(t, 1)
	dst := w.ConsumerRank()
	pep, cep := w.ProducerEndpoint(0), w.ConsumerEndpoint()
	pong, ping := pep.Mailbox(dst, 8), cep.Mailbox(0, 7)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(5 * time.Second)
		i := 0
		for ; i < rounds && time.Now().Before(deadline); i++ {
			if i%1000 == 999 {
				time.Sleep(time.Millisecond)
			}
			pep.Send(dst, 7, nil, 8)
			pong.Recv(nil) // concurrent backends ignore the proc handle
		}
		pep.Send(dst, 7, uint64(i), 8) // stop
		t.Logf("%d round trips", i)
	}()
	w.SpawnConsumer(func(p platform.Proc) {
		for {
			msg, ok := ping.TryRecv()
			for ; !ok; msg, ok = ping.TryRecv() {
				cep.Idle(p, 0)
			}
			if msg.Payload != nil {
				return
			}
			cep.Send(0, 8, nil, 8)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// idleAbort parks a poller with no traffic at all and fails the platform
// under it: Run must return the failure instead of hanging on the parked
// rank.
func idleAbort(t *testing.T, factory Factory) {
	w := factory(t, 1)
	ep := w.ConsumerEndpoint()
	idling := make(chan struct{})
	w.SpawnConsumer(func(p platform.Proc) {
		close(idling)
		for {
			ep.Idle(p, 0)
		}
	})
	go func() {
		<-idling
		time.Sleep(20 * time.Millisecond) // far past the spin budget: parked
		w.Abort(errors.New("boom"))
	}()
	if err := w.Run(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run returned %v, want the abort error", err)
	}
	if parks := w.Tracer().Metrics().Counter("host.recv.park").Value(); parks == 0 {
		t.Error("the poller was never parked: the test did not cover the parked path")
	}
}

// waitDelivered blocks until the consumer-side delivery counters account
// for n messages — on host delivery is synchronous and this returns at
// once; on net it rides the transport's actual arrival.
func waitDelivered(t *testing.T, w World, n uint64) {
	t.Helper()
	m := w.Tracer().Metrics()
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := m.Counter("host.ring.enqueue").Value()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d messages before timeout", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}
