package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/workloads"
)

// TestShadowReplayMatchesSetup pins the allocation-only replay contract of
// Program.Setup for every benchmark a net job can name: a replay on a
// context with no image and no clock must return without touching memory
// (here, without panicking on the missing image or process) and leave the
// program exactly as a real Setup does. A Setup that loses its Shadow()
// return, or sets a field after it, fails here rather than on a daemon.
func TestShadowReplayMatchesSetup(t *testing.T) {
	in := workloads.Input{Scale: 1, Seed: 42, MisspecRate: 0.02}
	for _, b := range workloads.All() {
		for _, paradigm := range []workloads.Paradigm{workloads.DSMTX, workloads.TLS} {
			for inv := range max(b.Invocations, 1) {
				t.Run(fmt.Sprintf("%s/%s/inv%d", b.Name, paradigm, inv), func(t *testing.T) {
					build := b.NewDSMTX
					if paradigm == workloads.TLS {
						build = b.NewTLS
					}
					want, got := build(in, inv), build(in, inv)
					cfg := core.DefaultConfig(want.Plan().MinWorkers()+2, want.Plan())
					if _, _, err := core.RunSequential(cfg, want, 0, nil); err != nil {
						t.Fatal(err)
					}
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("shadow replay touched memory: %v", r)
							}
						}()
						core.ShadowReplay(cfg, got)
					}()
					if !reflect.DeepEqual(want, got) {
						t.Errorf("shadow replay left\n%+v\nreal Setup left\n%+v", got, want)
					}
				})
			}
		}
	}
}
