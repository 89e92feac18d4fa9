package netrun

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"dsmtx/internal/job"
)

// TestMain lets TestKilledDaemonFailsJob re-exec this test binary as a
// daemon fleet: LaunchLocal(n, os.Args[0]) forks copies with DaemonEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(DaemonEnv) == "1" {
		os.Exit(DaemonMain())
	}
	os.Exit(m.Run())
}

// TestKilledDaemonFailsJob kills one of two spawn-local daemons 150 ms into
// a job, the commit daemon and the other in turn. The survivor's mesh loses
// its session without a Goodbye and aborts, so RunJob must fail within 5 s,
// naming the lost session or the dead daemon's EOF, and Close must find the
// survivor already exiting rather than kill it after its 5 s grace.
func TestKilledDaemonFailsJob(t *testing.T) {
	spec := job.Spec{Bench: "164.gzip", Backend: "net", Cores: 5, Scale: 16}
	for v := range 2 {
		t.Run(fmt.Sprintf("daemon%d", v), func(t *testing.T) {
			cl, err := LaunchLocal(2, os.Args[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.RunJob(spec); err != nil {
				cl.Close()
				t.Fatalf("warm-up job: %v", err)
			}
			victim := cl.procs[v].Process
			kill := time.AfterFunc(150*time.Millisecond, func() { victim.Kill() })
			defer kill.Stop()
			errc := make(chan error, 1)
			start := time.Now()
			go func() {
				_, err := cl.RunJob(spec)
				errc <- err
			}()
			select {
			case err := <-errc:
				if err == nil {
					t.Error("the job succeeded with a daemon killed mid-run")
				} else if msg := err.Error(); !strings.Contains(msg, "session lost") && !strings.Contains(msg, "EOF") {
					t.Errorf("RunJob error %q names neither the lost session nor the EOF", msg)
				}
				t.Logf("RunJob failed %v after it started", time.Since(start))
			case <-time.After(5 * time.Second):
				for _, cmd := range cl.procs {
					cmd.Process.Kill()
				}
				cl.Close()
				t.Fatal("RunJob still blocked 5 s after a daemon was killed")
			}
			start = time.Now()
			cl.Close()
			if d := time.Since(start); d > 2*time.Second {
				t.Errorf("Close took %v: the surviving daemon did not exit on its own", d)
			} else {
				t.Logf("Close took %v", d)
			}
		})
	}
}
