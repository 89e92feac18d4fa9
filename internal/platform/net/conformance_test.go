package net

import (
	gonet "net"
	"sync"
	"testing"

	"dsmtx/internal/platform"
	"dsmtx/internal/platform/platformtest"
	"dsmtx/internal/trace"
)

// netWorld adapts a two-daemon loopback mesh to the shared delivery
// conformance suite. Ranks split contiguously, so low producer ranks live
// with daemon 0 and the rest share daemon 1 with the consumer: the same
// assertions cover remote producers (TCP framing, reader injection) and
// local ones (plain mailbox delivery) in one storm.
type netWorld struct {
	producers int
	p0, p1    *Platform
	tr        *trace.Tracer
}

func (w *netWorld) Producers() int    { return w.producers }
func (w *netWorld) ConsumerRank() int { return w.producers }

// ProducerEndpoint returns rank i's endpoint on the daemon that owns it, so
// every send is accounted — and routed — from its home platform.
func (w *netWorld) ProducerEndpoint(i int) platform.Endpoint {
	if w.p0.LocalRank(i) {
		return w.p0.Endpoint(i)
	}
	return w.p1.Endpoint(i)
}

func (w *netWorld) ConsumerEndpoint() platform.Endpoint    { return w.p1.Endpoint(w.producers) }
func (w *netWorld) SpawnConsumer(fn func(p platform.Proc)) { w.p1.Spawn("consumer", fn) }

func (w *netWorld) Run() error {
	var wg sync.WaitGroup
	wg.Add(1)
	var err0 error
	go func() {
		defer wg.Done()
		err0 = w.p0.Run(0)
	}()
	err1 := w.p1.Run(0)
	wg.Wait()
	if err1 != nil {
		return err1
	}
	return err0
}

func (w *netWorld) Abort(err error)       { w.p1.Abort(err) }
func (w *netWorld) Tracer() *trace.Tracer { return w.tr }

func TestDeliveryConformance(t *testing.T) {
	platformtest.Run(t, func(t *testing.T, producers int) platformtest.World {
		ln, err := gonet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs := []string{ln.Addr().String(), ""}
		m0 := NewMesh(MeshConfig{JobID: 7, Self: 0, Addrs: addrs, Logf: t.Logf})
		m0.ServeListener(ln)
		m1 := NewMesh(MeshConfig{JobID: 7, Self: 1, Addrs: addrs, Logf: t.Logf})
		t.Cleanup(func() {
			m1.Close()
			m0.Close()
		})
		ranks := producers + 1
		p0, err := m0.Platform(0, ranks, ranks)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := m1.Platform(0, ranks, ranks)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.NewMetricsOnly()
		p1.SetTracer(tr)
		return &netWorld{producers: producers, p0: p0, p1: p1, tr: tr}
	})
}
