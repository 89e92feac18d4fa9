//go:build !race

package workloads

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
