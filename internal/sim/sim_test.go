package sim

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAdvanceAccumulatesTime(t *testing.T) {
	k := NewKernel()
	var end Time
	k.Spawn("w", func(p *Proc) {
		p.Advance(5 * Microsecond)
		p.Advance(10 * Microsecond)
		end = p.Now()
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if end != 15*Microsecond {
		t.Fatalf("end = %v, want 15µs", end)
	}
}

func TestSpawnStartsAtCurrentTime(t *testing.T) {
	k := NewKernel()
	var childStart Time
	k.Spawn("parent", func(p *Proc) {
		p.Advance(7)
		k.Spawn("child", func(c *Proc) { childStart = c.Now() })
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if childStart != 7 {
		t.Fatalf("child started at %d, want 7", childStart)
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		k.At(100, func() { order = append(order, i) })
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestAtAndAfterCallbacks(t *testing.T) {
	k := NewKernel()
	var at, after Time
	k.At(50, func() { at = k.Now() })
	k.Spawn("w", func(p *Proc) {
		p.Advance(10)
		k.After(5, func() { after = k.Now() })
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 50 || after != 15 {
		t.Fatalf("at=%d after=%d, want 50, 15", at, after)
	}
}

func TestChanSendRecv(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int]("c")
	var got []int
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Advance(10)
			ch.Push(i)
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, ok := ch.Recv(p)
			if !ok {
				t.Errorf("recv %d: ok = false", i)
			}
			got = append(got, v)
		}
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("received %d values, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestChanPushFromCallback(t *testing.T) {
	k := NewKernel()
	ch := NewChan[string]("net")
	var at Time
	k.At(42, func() { ch.Push("hello") })
	k.Spawn("rx", func(p *Proc) {
		v, ok := ch.Recv(p)
		if !ok || v != "hello" {
			t.Errorf("recv = %q, %v", v, ok)
		}
		at = p.Now()
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 42 {
		t.Fatalf("delivery at %d, want 42", at)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int]("never")
	k.Spawn("stuck", func(p *Proc) { ch.Recv(p) })
	err := k.Run(0)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(p *Proc) { panic("kaboom") })
	err := k.Run(0)
	if err == nil || errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want panic error", err)
	}
}

func TestKillUnwindsBlockedProcsOnPanic(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int]("c")
	cleaned := false
	k.Spawn("waiter", func(p *Proc) {
		defer func() { cleaned = true }()
		ch.Recv(p)
	})
	k.Spawn("boom", func(p *Proc) {
		p.Advance(1)
		panic("die")
	})
	if err := k.Run(0); err == nil {
		t.Fatal("expected error")
	}
	if !cleaned {
		t.Fatal("blocked proc's defer did not run during kill")
	}
}

func TestHorizonStopsEarly(t *testing.T) {
	k := NewKernel()
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for {
			p.Advance(10)
			ticks++
		}
	})
	if err := k.Run(95); err != nil {
		t.Fatal(err)
	}
	if ticks != 9 {
		t.Fatalf("ticks = %d, want 9", ticks)
	}
}

// TestDeterminism runs an irregular workload twice and requires identical
// event counts and finish times.
func TestDeterminism(t *testing.T) {
	run := func() (Time, uint64, int) {
		k := NewKernel()
		ch := NewChan[int]("c")
		sum := 0
		for w := 0; w < 7; w++ {
			k.Spawn("p", func(p *Proc) {
				for i := 0; i < 20; i++ {
					p.Advance(Duration((w*13 + i*7) % 11))
					ch.Push(w*100 + i)
				}
			})
		}
		k.Spawn("c", func(p *Proc) {
			for i := 0; i < 140; i++ {
				v, _ := ch.Recv(p)
				sum += v
				p.Advance(3)
			}
		})
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return k.Now(), k.Events(), sum
	}
	t1, e1, s1 := run()
	t2, e2, s2 := run()
	if t1 != t2 || e1 != e2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", t1, e1, s1, t2, e2, s2)
	}
}

// Property: a chain of Advances always lands exactly at the sum of the
// (clamped) durations, regardless of interleaved processes.
func TestAdvanceSumProperty(t *testing.T) {
	f := func(durs []int16) bool {
		if len(durs) > 64 {
			durs = durs[:64]
		}
		k := NewKernel()
		var want, got Time
		for _, d := range durs {
			dd := Duration(d)
			if dd < 0 {
				dd = 0
			}
			want += dd
		}
		k.Spawn("noise", func(p *Proc) {
			for i := 0; i < len(durs); i++ {
				p.Advance(5)
			}
		})
		k.Spawn("w", func(p *Proc) {
			for _, d := range durs {
				p.Advance(Duration(d))
			}
			got = p.Now()
		})
		if err := k.Run(0); err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: FIFO order is preserved through a channel for any payload set.
func TestChanFIFOProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		k := NewKernel()
		ch := NewChan[uint32]("c")
		var got []uint32
		k.Spawn("tx", func(p *Proc) {
			for _, v := range vals {
				ch.Push(v)
				p.Advance(Duration(v % 3))
			}
		})
		k.Spawn("rx", func(p *Proc) {
			for range vals {
				v, ok := ch.Recv(p)
				if !ok {
					return
				}
				got = append(got, v)
				p.Advance(1)
			}
		})
		if err := k.Run(0); err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5, "5ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// TestUnstartedProcUnwindsOnPanic covers the end-of-Run unwind of a
// process still in the calendar that never started: Run stops at the panic,
// the late process never runs, and its goroutine exits.
func TestUnstartedProcUnwindsOnPanic(t *testing.T) {
	k := NewKernel()
	started := false
	k.Spawn("a", func(p *Proc) {
		k.Spawn("late", func(p *Proc) { started = true; p.Advance(1) })
		panic("die")
	})
	if err := k.Run(0); err == nil || errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want panic error", err)
	}
	if started {
		t.Fatal("process spawned before the panic still ran")
	}
	if k.live != 0 {
		t.Fatalf("%d process goroutine(s) not unwound", k.live)
	}
}

func TestAdvanceNegativeClamps(t *testing.T) {
	k := NewKernel()
	k.Spawn("w", func(p *Proc) {
		p.Advance(-50)
		if p.Now() != 0 {
			t.Errorf("negative Advance moved time to %v", p.Now())
		}
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestProcAdvancedAccounting(t *testing.T) {
	k := NewKernel()
	var proc *Proc
	k.Spawn("w", func(p *Proc) {
		proc = p
		p.Advance(100)
		p.Advance(23)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if proc.Advanced() != 123 {
		t.Fatalf("Advanced = %v, want 123", proc.Advanced())
	}
}

// TestSetDilation: a dilation hook stretches Advance quanta (including
// through the park-free fast path) and the stretch lands in Advanced.
func TestSetDilation(t *testing.T) {
	k := NewKernel()
	var end Time
	var busy Time
	k.Spawn("straggler", func(p *Proc) {
		p.SetDilation(func(now Time, d Duration) Duration {
			if now >= 10*Microsecond && now < 20*Microsecond {
				return 3 * d
			}
			return d
		})
		p.Advance(10 * Microsecond) // outside window: 10µs
		p.Advance(5 * Microsecond)  // inside window: 15µs
		p.SetDilation(nil)
		p.Advance(5 * Microsecond) // hook removed: 5µs
		end = p.Now()
		busy = p.Advanced()
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if end != 30*Microsecond {
		t.Fatalf("end = %v, want 30µs", end)
	}
	if busy != 30*Microsecond {
		t.Fatalf("Advanced = %v, want 30µs (dilation is busy time)", busy)
	}
}
