package queue

import (
	"testing"

	"dsmtx/internal/sim"
	"dsmtx/internal/trace"
)

// TestProduceConsumeAllocBounded is an allocation-regression test for the
// queue hot path: steady-state Produce plus TryNext must amortize to well
// under one heap allocation per item. The ceiling covers
// world/queue setup and one allocation set per wire batch (slice, message,
// calendar event) with generous slack — reintroducing a per-item
// allocation blows through it.
func TestProduceConsumeAllocBounded(t *testing.T) {
	testProduceConsumeAllocBounded(t, nil)
}

// TestInstrumentedProduceConsumeAllocBounded holds the same ceiling with a
// metrics-only tracer attached: per-item counters, flush/drain histograms
// and the occupancy gauge are integer updates on resolved handles, so
// instrumentation must not move the queue hot path onto the heap. (A tracer
// with timeline recording on is allowed to allocate — it appends events —
// which is why the spans-off mode is the one pinned here.)
func TestInstrumentedProduceConsumeAllocBounded(t *testing.T) {
	testProduceConsumeAllocBounded(t, trace.NewMetricsOnly())
}

func testProduceConsumeAllocBounded(t *testing.T, tr *trace.Tracer) {
	const n = 4096
	runOnce := func() {
		k := sim.NewKernel()
		w := newWorld(k)
		q := New[uint64](w, "q", 0, 1, 100, DefaultConfig(), nil)
		q.Instrument(tr)
		k.Spawn("consumer", func(p *sim.Proc) {
			r := q.Receiver(w.Attach(1, p))
			got := 0
			for got < n {
				if _, ok := r.TryNext(); ok {
					got++
					continue
				}
				p.Advance(100)
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
	}
	per := testing.AllocsPerRun(5, runOnce)
	if perItem := per / n; perItem > 0.25 {
		t.Fatalf("produce/consume allocated %.3f times per item (%.0f per %d-item run), want <= 0.25",
			perItem, per, n)
	}
}
