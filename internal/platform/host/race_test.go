//go:build race

package host

// raceEnabled reports a -race build: the detector's instrumentation roughly
// doubles the CPU a wake costs, so CPU ceilings skip themselves under it.
const raceEnabled = true
