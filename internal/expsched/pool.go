// Package expsched schedules independent experiment points across host
// CPUs and caches their results on disk, content-addressed by the full
// point configuration plus a build/content fingerprint.
//
// Every figure point of the evaluation (workload × cores × mode) is an
// isolated, deterministic virtual-time simulation: points share nothing
// and commit nothing, so host-side concurrency cannot change any
// simulated outcome. The scheduler exploits that — it starts every point
// at once (the job engine's admission bounds how many simulate) and
// returns results in deterministic submission order, so everything
// rendered from them is byte-identical to a sequential run. The cache
// exploits the determinism a second time: a point's result is a pure
// function of its configuration and the simulator sources, so a content
// hash of the two addresses the result forever.
package expsched

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Map runs fn for every index in [0, n), each on its own goroutine, and
// returns the results in index order once every call has returned. If any
// call failed it returns the lowest-index error and no results. A panic
// inside fn is captured and surfaced as that index's error.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = call(fn, i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// call invokes fn, converting a panic into an error so one bad point
// reports like any other failure instead of killing sibling workers
// mid-simulation.
func call[T any](fn func(i int) (T, error), i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("expsched: point %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}
