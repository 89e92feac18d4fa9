package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dsmtx/internal/platform"
	"dsmtx/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.CoresPerNode = 2
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }},
		{"zero cores per node", func(c *Config) { c.CoresPerNode = 0 }},
		{"zero link bandwidth", func(c *Config) { c.LinkBandwidth = 0 }},
		{"negative link bandwidth", func(c *Config) { c.LinkBandwidth = -1 }},
		{"zero intra bandwidth", func(c *Config) { c.IntraNodeBandwidth = 0 }},
		{"negative clock", func(c *Config) { c.ClockGHz = -1 }},
		{"negative inter latency", func(c *Config) { c.InterNodeLatency = -1 }},
		{"negative intra latency", func(c *Config) { c.IntraNodeLatency = -1 }},
		{"head node beyond nodes", func(c *Config) { c.HeadNode = c.Nodes }},
		{"head node without bandwidth", func(c *Config) { c.HeadNode = 0; c.HeadBandwidth = 0 }},
		{"negative head bandwidth", func(c *Config) { c.HeadNode = 1; c.HeadBandwidth = -2 }},
	}
	for _, tc := range cases {
		c := testConfig()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	// A valid head-node designation passes.
	c := testConfig()
	c.HeadNode, c.HeadBandwidth = 1, 5e9
	if err := c.Validate(); err != nil {
		t.Errorf("head-node config rejected: %v", err)
	}
	// Zero latencies are legal (idealized interconnect).
	c = testConfig()
	c.InterNodeLatency, c.IntraNodeLatency = 0, 0
	if err := c.Validate(); err != nil {
		t.Errorf("zero-latency config rejected: %v", err)
	}
}

func TestNodePlacementRoundRobin(t *testing.T) {
	cfg := testConfig() // 4 nodes x 2 cores
	wantNodes := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for r, want := range wantNodes {
		if got := cfg.NodeOf(r); got != want {
			t.Errorf("NodeOf(%d) = %d, want %d", r, got, want)
		}
	}
}

func TestInstrTime(t *testing.T) {
	cfg := testConfig() // 3 GHz
	if got := cfg.InstrTime(3000); got != 1000*platform.Nanosecond {
		t.Fatalf("3000 instr @3GHz = %v, want 1µs", got)
	}
	if got := cfg.InstrTime(-5); got != 0 {
		t.Fatalf("negative instructions charged %v", got)
	}
}

func TestInterNodeLatencyApplied(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testConfig())
	var arrival platform.Time
	k.Spawn("rx", func(p *sim.Proc) {
		m.Endpoint(1).Recv(p, 0, 7) // rank 1 is node 1: inter-node
		arrival = p.Now()
	})
	k.Spawn("tx", func(p *sim.Proc) {
		m.Endpoint(0).Send(1, 7, "x", 0)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if arrival != testConfig().InterNodeLatency {
		t.Fatalf("arrival = %v, want %v", arrival, testConfig().InterNodeLatency)
	}
}

func TestIntraNodeFasterThanInterNode(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testConfig())
	var intra, inter platform.Time
	// Rank 0 and 4 share node 0; rank 1 is on node 1.
	k.Spawn("rxIntra", func(p *sim.Proc) {
		m.Endpoint(4).Recv(p, 0, 1)
		intra = p.Now()
	})
	k.Spawn("rxInter", func(p *sim.Proc) {
		m.Endpoint(1).Recv(p, 0, 2)
		inter = p.Now()
	})
	k.Spawn("tx", func(p *sim.Proc) {
		m.Endpoint(0).Send(4, 1, nil, 64)
		m.Endpoint(0).Send(1, 2, nil, 64)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if intra >= inter {
		t.Fatalf("intra-node %v not faster than inter-node %v", intra, inter)
	}
}

// Two back-to-back large messages through one NIC must serialize: the second
// arrives one transmission time after the first.
func TestNICSerialization(t *testing.T) {
	cfg := testConfig()
	cfg.LinkBandwidth = 1e9 // 1 byte/ns
	k := sim.NewKernel()
	m := New(k, cfg)
	var first, second platform.Time
	k.Spawn("rx", func(p *sim.Proc) {
		m.Endpoint(1).Recv(p, 0, 1)
		first = p.Now()
		m.Endpoint(1).Recv(p, 0, 1)
		second = p.Now()
	})
	k.Spawn("tx", func(p *sim.Proc) {
		m.Endpoint(0).Send(1, 1, nil, 1000) // 1000 ns on the wire
		m.Endpoint(0).Send(1, 1, nil, 1000)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if second-first != 1000*platform.Nanosecond {
		t.Fatalf("gap = %v, want 1µs NIC serialization", second-first)
	}
}

func TestAnySourceMailbox(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testConfig())
	const tag = 9
	got := map[int]bool{}
	k.Spawn("rx", func(p *sim.Proc) {
		ep := m.Endpoint(0)
		ep.Mailbox(platform.AnySource, tag)
		p.Advance(10)
		for i := 0; i < 3; i++ {
			msg := ep.Recv(p, platform.AnySource, tag)
			got[msg.From] = true
		}
	})
	for _, src := range []int{1, 2, 3} {
		k.Spawn("tx", func(p *sim.Proc) {
			p.Advance(platform.Duration(src * 100))
			m.Endpoint(src).Send(0, tag, nil, 8)
		})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("received from %d sources, want 3", len(got))
	}
}

// TestTrafficBeforeRegistration sends on a tag before its receiver has
// registered the tag's mailbox: every message waits in the tag's one box,
// and each sender's messages come out in send order.
func TestTrafficBeforeRegistration(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testConfig())
	const tag, perSource = 9, 5
	next := map[int]int{}
	k.Spawn("rx", func(p *sim.Proc) {
		p.Advance(platform.Millisecond) // every message has arrived by now
		box := m.Endpoint(0).Mailbox(platform.AnySource, tag)
		for range 3 * perSource {
			msg, _ := box.Recv(p)
			if msg.Payload.(int) != next[msg.From] {
				t.Errorf("source %d delivered %d, want %d", msg.From, msg.Payload, next[msg.From])
			}
			next[msg.From]++
		}
	})
	for _, src := range []int{1, 2, 3} {
		k.Spawn("tx", func(p *sim.Proc) {
			for i := range perSource {
				m.Endpoint(src).Send(0, tag, i, 8)
			}
		})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{1, 2, 3} {
		if next[src] != perSource {
			t.Errorf("received %d messages from source %d, want %d", next[src], src, perSource)
		}
	}
}

// TestConflictingSendersPanic: a tag has one mailbox, so two registrations
// naming different senders on one tag are a protocol bug and panic, naming
// the rank, the tag and both senders. AnySource never conflicts.
func TestConflictingSendersPanic(t *testing.T) {
	m := New(sim.NewKernel(), testConfig())
	ep := m.Endpoint(0)
	ep.Mailbox(platform.AnySource, 4)
	ep.Mailbox(1, 4)
	ep.Mailbox(platform.AnySource, 4)
	ep.Mailbox(1, 4)
	defer func() {
		msg, _ := recover().(string)
		if want := "rank 0 tag 4 registered for sender 1, then for sender 2"; !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	ep.Mailbox(2, 4)
}

func TestTrafficStats(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testConfig())
	k.Spawn("rx1", func(p *sim.Proc) { m.Endpoint(1).Recv(p, 0, 1) })
	k.Spawn("rx4", func(p *sim.Proc) { m.Endpoint(4).Recv(p, 0, 1) })
	k.Spawn("tx", func(p *sim.Proc) {
		m.Endpoint(0).Send(1, 1, nil, 100) // inter-node
		m.Endpoint(0).Send(4, 1, nil, 50)  // intra-node
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	s := m.Traffic()
	if s.Messages != 2 || s.Bytes != 150 || s.InterNodeBytes != 100 || s.IntraNodeBytes != 50 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMessagesFIFOPerPair(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 100 {
			return true
		}
		k := sim.NewKernel()
		m := New(k, testConfig())
		var got []int
		k.Spawn("rx", func(p *sim.Proc) {
			for range sizes {
				msg := m.Endpoint(1).Recv(p, 0, 3)
				got = append(got, msg.Payload.(int))
			}
		})
		k.Spawn("tx", func(p *sim.Proc) {
			for i, sz := range sizes {
				m.Endpoint(0).Send(1, 3, i, int(sz))
				p.Advance(platform.Duration(sz % 7))
			}
		})
		if err := k.Run(0); err != nil {
			return false
		}
		for i := range sizes {
			if got[i] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointRankPanicsOutOfRange(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range rank")
		}
	}()
	m.Endpoint(99)
}

// TestIdleIsExactlyAdvance pins the vtime meaning of a poll loop's wait
// step: Idle spends exactly the modelled back-off as busy time — pending
// deliveries do not shorten it, and it neither consumes nor sends anything.
func TestIdleIsExactlyAdvance(t *testing.T) {
	k := sim.NewKernel()
	m := New(k, testConfig())
	const d = 1234 * platform.Nanosecond
	var before, after, busy platform.Time
	var pending bool
	k.Spawn("poller", func(p *sim.Proc) {
		ep := m.Endpoint(1)
		p.Advance(10 * platform.Microsecond) // the message below is delivered by now
		before, busy = p.Now(), p.Advanced()
		ep.Idle(p, d)
		after, busy = p.Now(), p.Advanced()-busy
		_, pending = ep.Mailbox(0, 7).TryRecv()
	})
	k.Spawn("tx", func(p *sim.Proc) { m.Endpoint(0).Send(1, 7, nil, 8) })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if after-before != d || busy != d {
		t.Fatalf("Idle(%v) advanced the clock by %v and busy time by %v", d, after-before, busy)
	}
	if !pending {
		t.Fatal("Idle consumed the pending message")
	}
	if s := m.Traffic(); s.Messages != 1 {
		t.Fatalf("traffic after Idle = %d messages, want the sender's 1", s.Messages)
	}
}

// TestLatencyFaultsDelayButPreserveOrder: random extra latency on every
// message (SetExtraLatency) stretches deliveries, on the intra-node pair
// 0→1 and the inter-node pair 0→2 alike, but keeps MPI's non-overtaking
// guarantee.
func TestLatencyFaultsDelayButPreserveOrder(t *testing.T) {
	run := func(extra func(from, to int, now platform.Time) platform.Duration) (platform.Time, bool) {
		k := sim.NewKernel()
		m := New(k, testConfig())
		m.SetExtraLatency(extra)
		ok := true
		var end platform.Time
		for _, dst := range []int{1, 2} {
			k.Spawn(fmt.Sprintf("rx%d", dst), func(p *sim.Proc) {
				for i := range 50 {
					if msg := m.Endpoint(dst).Recv(p, 0, 3); msg.Payload.(int) != i {
						ok = false
					}
				}
				end = max(end, p.Now())
			})
		}
		k.Spawn("tx", func(p *sim.Proc) {
			for i := range 50 {
				m.Endpoint(0).Send(1, 3, i, 8)
				m.Endpoint(0).Send(2, 3, i, 8)
				p.Advance(10)
			}
		})
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return end, ok
	}
	clean, _ := run(nil)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		end, ok := run(func(int, int, platform.Time) platform.Duration {
			return platform.Duration(rng.Int63n(int64(100 * platform.Microsecond)))
		})
		return ok && end > clean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
