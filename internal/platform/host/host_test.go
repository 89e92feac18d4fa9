package host

import (
	"errors"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dsmtx/internal/platform"
	"dsmtx/internal/trace"
)

// TestSendRecv moves a message between two live processes through the
// blocking mailbox path.
func TestSendRecv(t *testing.T) {
	h := New(2, nil)
	h.Spawn("sender", func(p platform.Proc) {
		h.Endpoint(0).Send(1, 7, "hello", 5)
	})
	var got platform.Message
	h.Spawn("receiver", func(p platform.Proc) {
		got = h.Endpoint(1).Recv(p, 0, 7)
	})
	if err := h.Run(0); err != nil {
		t.Fatal(err)
	}
	if got.Payload != "hello" || got.From != 0 || got.Tag != 7 || got.Bytes != 5 {
		t.Fatalf("received %+v", got)
	}
}

// TestEarlyTraffic delivers on a tag before its receiver registers it: the
// message waits in the tag's one box, and later sends land there too.
func TestEarlyTraffic(t *testing.T) {
	h := New(2, nil)
	h.Endpoint(0).Send(1, 3, "early", 5)
	box := h.Endpoint(1).Mailbox(platform.AnySource, 3)
	if msg, ok := box.TryRecv(); !ok || msg.Payload != "early" {
		t.Fatalf("receive after early delivery: %+v ok=%v", msg, ok)
	}
	h.Endpoint(0).Send(1, 3, "late", 4)
	if msg, ok := box.TryRecv(); !ok || msg.Payload != "late" {
		t.Fatalf("receive after registration: %+v ok=%v", msg, ok)
	}
}

// TestConflictingSendersPanic: a tag has one mailbox, so two registrations
// naming different senders on one tag are a protocol bug and panic, naming
// the rank, the tag and both senders. AnySource never conflicts, and a
// blocking Recv registers as Mailbox does.
func TestConflictingSendersPanic(t *testing.T) {
	h := New(3, nil)
	ep := h.Endpoint(0)
	ep.Mailbox(platform.AnySource, 4)
	ep.Mailbox(1, 4)
	ep.Mailbox(platform.AnySource, 4)
	h.Endpoint(1).Send(0, 4, nil, 8)
	h.Spawn("rx", func(p platform.Proc) { ep.Recv(p, 1, 4) })
	if err := h.Run(0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg, _ := recover().(string)
		if want := "rank 0 tag 4 registered for sender 1, then for sender 2"; !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	ep.Mailbox(2, 4)
}

// TestFailureUnwindsBlockedRecv kills one process and requires Run to
// return its error instead of deadlocking on the peer parked in Recv.
func TestFailureUnwindsBlockedRecv(t *testing.T) {
	h := New(2, nil)
	h.Spawn("victim", func(p platform.Proc) {
		h.Endpoint(1).Recv(p, 0, 1) // no sender: blocks until failure
	})
	h.Spawn("crasher", func(p platform.Proc) {
		panic(errors.New("boom"))
	})
	err := h.Run(0)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run returned %v, want the crasher's panic", err)
	}
}

// TestTrafficAccounting checks class and node attribution of sent bytes.
func TestTrafficAccounting(t *testing.T) {
	h := New(4, func(rank int) int { return rank / 2 }) // ranks 0,1 on node 0
	h.Endpoint(0).SendClass(1, 1, nil, 100, platform.ClassQueue)
	h.Endpoint(0).SendClass(2, 1, nil, 40, platform.ClassPage)
	h.Endpoint(3).Send(0, 2, nil, 7)
	s := h.Traffic()
	if s.Messages != 3 || s.Bytes != 147 {
		t.Fatalf("messages %d bytes %d, want 3/147", s.Messages, s.Bytes)
	}
	if s.QueueBytes != 100 || s.PageBytes != 40 || s.ControlBytes != 7 {
		t.Fatalf("class bytes queue %d page %d control %d", s.QueueBytes, s.PageBytes, s.ControlBytes)
	}
	if s.IntraNodeBytes != 100 || s.InterNodeBytes != 47 {
		t.Fatalf("intra %d inter %d, want 100/47", s.IntraNodeBytes, s.InterNodeBytes)
	}
}

// TestPlatformShape pins the host backend's contract constants.
func TestPlatformShape(t *testing.T) {
	h := New(3, nil)
	if h.InstrTime(1_000_000) != 0 {
		t.Error("host must not charge instruction time")
	}
	if h.Events() != 0 {
		t.Error("host has no event calendar")
	}
}

// processCPU reports the CPU time (user + system) this process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleRanksDoNotSpin is the regression pin for the poll loops' wait
// step. AllIdle: four ranks with nothing to receive must cost (next to) no
// CPU; the yield loop Idle replaced kept every P busy — about 200 ms of CPU
// per 100 ms on two CPUs. Chatty: four ranks polling through Idle while each
// hears a message every millisecond must park between messages rather than
// spin through the gap.
func TestIdleRanksDoNotSpin(t *testing.T) {
	t.Run("AllIdle", func(t *testing.T) {
		const ranks = 4
		h := New(ranks, nil)
		tr := trace.NewMetricsOnly()
		h.SetTracer(tr)
		for r := 0; r < ranks; r++ {
			h.Spawn("idler", func(p platform.Proc) { h.Endpoint(r).Idle(p, 0) })
		}
		// Measure only once every rank is past its spin budget.
		for deadline := time.Now().Add(10 * time.Second); tr.Metrics().Counter("host.recv.park").Value() < ranks; {
			if time.Now().After(deadline) {
				t.Fatal("idle ranks never parked")
			}
			time.Sleep(time.Millisecond)
		}
		before := processCPU(t)
		time.Sleep(100 * time.Millisecond)
		used := processCPU(t) - before
		for r := 0; r < ranks; r++ {
			h.Endpoint(0).Send(r, 1, nil, 8) // any delivery ends the wait
		}
		if err := h.Run(0); err != nil {
			t.Fatal(err)
		}
		if used >= 50*time.Millisecond {
			t.Fatalf("%d idle ranks used %v of CPU in 100ms, want < 50ms", ranks, used)
		}
	})

	t.Run("Chatty", func(t *testing.T) {
		if raceEnabled {
			t.Skip("CPU ceiling: the race detector doubles the cost of a wake")
		}
		const ranks = 4
		h := New(ranks, nil)
		var stop atomic.Bool
		for r := 0; r < ranks; r++ {
			h.Spawn("poller", func(p platform.Proc) {
				ep := h.Endpoint(r)
				box := ep.Mailbox(0, 1)
				for !stop.Load() {
					for _, ok := box.TryRecv(); ok; _, ok = box.TryRecv() {
					}
					ep.Idle(p, 0)
				}
			})
		}
		tick := func() {
			for r := 0; r < ranks; r++ {
				h.Endpoint(0).Send(r, 1, nil, 8)
			}
		}
		chat := func(d time.Duration) {
			for end := time.Now().Add(d); time.Now().Before(end); {
				time.Sleep(time.Millisecond)
				tick()
			}
		}
		chat(20 * time.Millisecond) // warm up
		before := processCPU(t)
		chat(100 * time.Millisecond)
		used := processCPU(t) - before
		stop.Store(true)
		tick() // ends any wait in progress; every later check sees stop
		if err := h.Run(0); err != nil {
			t.Fatal(err)
		}
		t.Logf("CPU in 100ms: %v", used)
		// On a 2-CPU box, spinning 400 µs of wall time before parking read
		// 55–57 ms; spinning the 64-yield budget reads 8–20 ms (median 17).
		// The bound must stay about 2× away from both readings, or noise
		// decides.
		if used >= 30*time.Millisecond {
			t.Fatalf("%d ranks hearing a message every 1ms used %v of CPU in 100ms, want < 30ms", ranks, used)
		}
	})
}
