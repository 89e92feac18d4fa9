package faults

import (
	"math"
	"strings"
	"testing"

	"dsmtx/internal/platform"
)

func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"seed=7,spike=0.01:20us",
		"seed=7,spike=0.002:50us,degrade=2x@1ms+500us",
		"seed=1,degrade=2x@1ms+500us",
		"seed=9,straggler=r3:4x@200us+1ms,straggler=r2:2x@1ms+300us",
		"spike=0.01:1ms,straggler=r0:2x@0ns+5us,straggler=r0:2x@2ms+5us,straggler=r4:3x@1ms+1ms",
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
	p, err := Parse("straggler=r2:2x@1500us+300us,spike=0.01:1000us,seed=7,straggler=r1:2x@1ms+2ms")
	if err != nil {
		t.Fatal(err)
	}
	want := "seed=7,spike=0.01:1ms,straggler=r1:2x@1ms+2ms,straggler=r2:2x@1500us+300us"
	if got := p.Format(); got != want {
		t.Fatalf("Format = %q, want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"spike",                     // no value
		"bogus=1",                   // unknown key
		"spike=x:1us",               // not a number
		"spike=1.5:1us",             // rate outside [0,1]
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
		"drop=0.01",                 // removed clause: unknown key
		"ackdrop=0.01",              // removed clause: unknown key
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
	// Non-finite numbers and durations past int64 nanoseconds are refused
	// by the parser itself, not by a later check they slip through.
	for spec, want := range map[string]string{
		"spike=NaN:20us":               "bad number",
		"straggler=r1:NaNx@0ns+1ms":    "bad number",
		"degrade=NaNx@0ns+1ms":         "bad number",
		"straggler=r1:Infx@0ns+1ms":    "bad number",
		"degrade=+Infx@0ns+1ms":        "bad number",
		"spike=0.5:NaNus":              "bad duration",
		"spike=0.5:Infus":              "bad duration",
		"spike=0.5:1e10s":              "bad duration",
		"straggler=r1:2x@0ns+9.3e18ns": "bad duration",
	} {
		if _, err := Parse(spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", spec, err, want)
		}
	}
}

// TestValidateRefusesNonFinite holds Validate to NaN-safe comparisons for
// plans built without Parse.
func TestValidateRefusesNonFinite(t *testing.T) {
	for _, p := range []Plan{
		{SpikeRate: math.NaN(), SpikeExtra: platform.Microsecond},
		{Degrades: []Degrade{{Factor: math.NaN(), Dur: platform.Millisecond}}},
		{Stragglers: []Straggler{{Rank: 1, Factor: math.Inf(1), Dur: platform.Millisecond}}},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", p)
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
	p.SpikeRate, p.SpikeExtra = 0.1, platform.Microsecond
	if p.Empty() {
		t.Error("spike rate makes the plan non-empty")
	}
}

// TestDecisionsDeterministicAndOrderFree pins the core contract: a fault
// decision depends only on its identity, never on query order or on other
// queries in between.
func TestDecisionsDeterministicAndOrderFree(t *testing.T) {
	const extra = 10 * platform.Microsecond
	in, err := Compile(Plan{Seed: 99, SpikeRate: 0.5, SpikeExtra: extra})
	if err != nil {
		t.Fatal(err)
	}
	type q struct {
		from, to int
		seq      uint64
	}
	queries := []q{{0, 5, 0}, {0, 5, 1}, {5, 0, 0}, {3, 7, 19}, {3, 7, 20}}
	forward := make([]platform.Duration, len(queries))
	for i, e := range queries {
		forward[i] = in.ExtraLatency(e.from, e.to, e.seq, 0, platform.Microsecond)
	}
	// Reverse order, with unrelated rolls interleaved.
	for i := len(queries) - 1; i >= 0; i-- {
		e := queries[i]
		in.ExtraLatency(e.to, e.from, e.seq+100, 0, platform.Microsecond)
		if got := in.ExtraLatency(e.from, e.to, e.seq, 0, platform.Microsecond); got != forward[i] {
			t.Fatalf("ExtraLatency(%+v) flipped between orders", e)
		}
	}
	// Distinct seeds must decorrelate the stream.
	in2, _ := Compile(Plan{Seed: 100, SpikeRate: 0.5, SpikeExtra: extra})
	same := 0
	for seq := uint64(0); seq < 64; seq++ {
		if in.ExtraLatency(1, 2, seq, 0, 0) == in2.ExtraLatency(1, 2, seq, 0, 0) {
			same++
		}
	}
	if same == 64 {
		t.Fatal("seed change did not alter the decision stream")
	}
}

// TestSpikeRateStatistics sanity-checks the hash-to-uniform mapping: the
// empirical spike frequency must track the configured rate.
func TestSpikeRateStatistics(t *testing.T) {
	const rate, n = 0.1, 20000
	in, err := Compile(Plan{Seed: 1, SpikeRate: rate, SpikeExtra: platform.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	spikes := 0
	for seq := uint64(0); seq < n; seq++ {
		if in.ExtraLatency(2, 9, seq, 0, 0) > 0 {
			spikes++
		}
	}
	got := float64(spikes) / n
	if math.Abs(got-rate) > 0.02 {
		t.Fatalf("empirical spike rate %.4f, want ~%.2f", got, rate)
	}
}

func TestExtraLatency(t *testing.T) {
	in, err := Compile(Plan{
		Seed:     3,
		Degrades: []Degrade{{From: 1 * platform.Millisecond, Dur: 1 * platform.Millisecond, Factor: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := 2 * platform.Microsecond
	if got := in.ExtraLatency(0, 1, 0, 0, base); got != 0 {
		t.Fatalf("outside window: extra = %v, want 0", got)
	}
	at := platform.Time(1500 * platform.Microsecond)
	if got := in.ExtraLatency(0, 1, 0, at, base); got != 2*base {
		t.Fatalf("inside 3x window: extra = %v, want %v", got, 2*base)
	}
}

func TestDilation(t *testing.T) {
	in, err := Compile(Plan{
		Stragglers: []Straggler{{Rank: 3, From: platform.Time(100 * platform.Microsecond), Dur: 1 * platform.Millisecond, Factor: 4}},
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
	d := 10 * platform.Microsecond
	if got := f(0, d); got != d {
		t.Fatalf("before window: %v, want %v", got, d)
	}
	if got := f(platform.Time(200*platform.Microsecond), d); got != 4*d {
		t.Fatalf("inside window: %v, want %v", got, 4*d)
	}
	if got := f(platform.Time(2*platform.Millisecond), d); got != d {
		t.Fatalf("after window: %v, want %v", got, d)
	}
}
