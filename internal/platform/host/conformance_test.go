package host

import (
	"testing"

	"dsmtx/internal/platform"
	"dsmtx/internal/platform/platformtest"
	"dsmtx/internal/trace"
)

// hostWorld adapts the in-process host platform to the shared delivery
// conformance suite: producers and consumer share one Platform, so the
// suite exercises the rings directly with no transport in between.
type hostWorld struct {
	producers int
	h         *Platform
	tr        *trace.Tracer
}

func (w *hostWorld) Producers() int                           { return w.producers }
func (w *hostWorld) ConsumerRank() int                        { return w.producers }
func (w *hostWorld) ProducerEndpoint(i int) platform.Endpoint { return w.h.Endpoint(i) }
func (w *hostWorld) ConsumerEndpoint() platform.Endpoint      { return w.h.Endpoint(w.producers) }
func (w *hostWorld) SpawnConsumer(fn func(p platform.Proc))   { w.h.Spawn("consumer", fn) }
func (w *hostWorld) Run() error                               { return w.h.Run(0) }
func (w *hostWorld) Abort(err error)                          { w.h.Abort(err) }
func (w *hostWorld) Tracer() *trace.Tracer                    { return w.tr }

func TestDeliveryConformance(t *testing.T) {
	platformtest.Run(t, func(t *testing.T, producers int) platformtest.World {
		h := New(producers+1, nil)
		tr := trace.NewMetricsOnly()
		h.SetTracer(tr)
		return &hostWorld{producers: producers, h: h, tr: tr}
	})
}
