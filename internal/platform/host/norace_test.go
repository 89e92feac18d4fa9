//go:build !race

package host

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
