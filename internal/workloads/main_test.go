package workloads_test

import (
	"os"
	"testing"

	"dsmtx/internal/netrun"
)

// TestMain lets net-backend tests re-exec this test binary as a daemon
// fleet (external test package: netrun imports workloads): netrun.LaunchLocal(n, os.Args[0]) forks copies with DaemonEnv set,
// and those copies divert into the daemon loop instead of running tests.
func TestMain(m *testing.M) {
	if os.Getenv(netrun.DaemonEnv) == "1" {
		os.Exit(netrun.DaemonMain())
	}
	os.Exit(m.Run())
}
