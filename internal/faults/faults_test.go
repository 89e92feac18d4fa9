package faults

import (
	"math"
	"testing"

	"dsmtx/internal/sim"
)

func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"seed=7,drop=0.01",
		"seed=7,drop=0.0001,ackdrop=0.02,spike=0.002:50us",
		"seed=1,degrade=2x@1ms+500us",
		"seed=9,straggler=r3:4x@200us+1ms,straggler=r2:2x@1ms+300us",
		"drop=0.01,straggler=r0:2x@0ns+5us,straggler=r0:2x@2ms+5us,straggler=r4:3x@1ms+1ms",
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		canon := p.Format()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(Format(%q)) = Parse(%q): %v", spec, canon, err)
		}
		if canon2 := p2.Format(); canon2 != canon {
			t.Errorf("Format not stable for %q: %q then %q", spec, canon, canon2)
		}
	}
}

func TestSpecCanonicalForm(t *testing.T) {
	// Clause order and window sorting are normalized; durations render in
	// their largest exact unit.
	p, err := Parse("straggler=r2:2x@1500us+300us,drop=0.01,seed=7,straggler=r1:2x@1ms+2ms")
	if err != nil {
		t.Fatal(err)
	}
	want := "seed=7,drop=0.01,straggler=r1:2x@1ms+2ms,straggler=r2:2x@1500us+300us"
	if got := p.Format(); got != want {
		t.Fatalf("Format = %q, want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"drop",                      // no value
		"bogus=1",                   // unknown key
		"drop=x",                    // not a number
		"drop=1.5",                  // rate outside [0,1]
		"spike=0.1",                 // missing duration
		"spike=0.1:banana",          // bad duration
		"spike=0.1:10",              // unitless duration
		"straggler=3:2x@0ns+1ms",    // rank without r prefix
		"straggler=r3:0.5x@0ns+1ms", // factor below 1
		"straggler=r1:2x@1ms",       // missing window length
		"straggler=r-1:2x@1ms+1ms",  // negative rank
		"degrade=2x@1ms+0ns",        // empty window
		"crash=r1@1ms+1ms",          // removed clause: unknown key
		"rto=20us",                  // removed clause: unknown key
		"attempts=12",               // removed clause: unknown key
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestEmpty(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Error("nil plan should be empty")
	}
	p := Plan{Seed: 42}
	if !p.Empty() {
		t.Error("a seed alone should leave the plan empty")
	}
	p.DropRate = 0.1
	if p.Empty() {
		t.Error("drop rate makes the plan non-empty")
	}
}

// TestDecisionsDeterministicAndOrderFree pins the core contract: a fault
// decision depends only on its identity, never on query order or on other
// queries in between.
func TestDecisionsDeterministicAndOrderFree(t *testing.T) {
	in, err := Compile(Plan{Seed: 99, DropRate: 0.3, AckDropRate: 0.2, SpikeRate: 0.5, SpikeExtra: 10 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	type q struct {
		from, to int
		seq      uint64
		attempt  int
	}
	queries := []q{{0, 5, 0, 0}, {0, 5, 0, 1}, {5, 0, 0, 0}, {3, 7, 19, 0}, {3, 7, 20, 0}}
	forward := make([]bool, len(queries))
	for i, e := range queries {
		forward[i] = in.DropData(e.from, e.to, e.seq, e.attempt)
	}
	// Reverse order, with unrelated rolls interleaved.
	for i := len(queries) - 1; i >= 0; i-- {
		e := queries[i]
		in.DropAck(e.to, e.from, e.seq)
		in.ExtraLatency(e.from, e.to, e.seq, e.attempt, 0, sim.Microsecond)
		if got := in.DropData(e.from, e.to, e.seq, e.attempt); got != forward[i] {
			t.Fatalf("DropData(%+v) flipped between orders", e)
		}
	}
	// Distinct seeds must decorrelate the stream.
	in2, _ := Compile(Plan{Seed: 100, DropRate: 0.3})
	same := 0
	for seq := uint64(0); seq < 64; seq++ {
		if in.DropData(1, 2, seq, 0) == in2.DropData(1, 2, seq, 0) {
			same++
		}
	}
	if same == 64 {
		t.Fatal("seed change did not alter the decision stream")
	}
}

// TestDropRateStatistics sanity-checks the hash-to-uniform mapping: the
// empirical drop frequency must track the configured rate.
func TestDropRateStatistics(t *testing.T) {
	const rate, n = 0.1, 20000
	in, err := Compile(Plan{Seed: 1, DropRate: rate})
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	for seq := uint64(0); seq < n; seq++ {
		if in.DropData(2, 9, seq, 0) {
			drops++
		}
	}
	got := float64(drops) / n
	if math.Abs(got-rate) > 0.02 {
		t.Fatalf("empirical drop rate %.4f, want ~%.2f", got, rate)
	}
}

func TestRTOBackoff(t *testing.T) {
	for attempt, want := range []sim.Duration{1, 2, 4, 8} {
		if got := RTO(attempt); got != want*BaseRTO {
			t.Fatalf("RTO(%d) = %v, want %v", attempt, got, want*BaseRTO)
		}
	}
	// The backoff stops doubling at attempt 16.
	if RTO(40) != RTO(16) || RTO(16) != BaseRTO<<16 {
		t.Fatalf("RTO(40) = %v, RTO(16) = %v, want both %v", RTO(40), RTO(16), BaseRTO<<16)
	}
	if MaxAttempts > maxAttemptsCap {
		t.Fatalf("MaxAttempts %d exceeds the decision hash's cap %d", MaxAttempts, maxAttemptsCap)
	}
}

func TestExtraLatency(t *testing.T) {
	in, err := Compile(Plan{
		Seed:     3,
		Degrades: []Degrade{{From: 1 * sim.Millisecond, Dur: 1 * sim.Millisecond, Factor: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := 2 * sim.Microsecond
	if got := in.ExtraLatency(0, 1, 0, 0, 0, base); got != 0 {
		t.Fatalf("outside window: extra = %v, want 0", got)
	}
	at := sim.Time(1500 * sim.Microsecond)
	if got := in.ExtraLatency(0, 1, 0, 0, at, base); got != 2*base {
		t.Fatalf("inside 3x window: extra = %v, want %v", got, 2*base)
	}
}

func TestDilation(t *testing.T) {
	in, err := Compile(Plan{
		Stragglers: []Straggler{{Rank: 3, From: sim.Time(100 * sim.Microsecond), Dur: 1 * sim.Millisecond, Factor: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.DilationFor(0) != nil {
		t.Fatal("rank 0 should not straggle")
	}
	f := in.DilationFor(3)
	if f == nil {
		t.Fatal("rank 3 should straggle")
	}
	d := 10 * sim.Microsecond
	if got := f(0, d); got != d {
		t.Fatalf("before window: %v, want %v", got, d)
	}
	if got := f(sim.Time(200*sim.Microsecond), d); got != 4*d {
		t.Fatalf("inside window: %v, want %v", got, 4*d)
	}
	if got := f(sim.Time(2*sim.Millisecond), d); got != d {
		t.Fatalf("after window: %v, want %v", got, d)
	}
}
