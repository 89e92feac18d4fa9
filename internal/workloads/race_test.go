//go:build race

package workloads

// raceEnabled reports a -race build: the detector's instrumentation
// allocates, so allocation ceilings skip themselves under it.
const raceEnabled = true
