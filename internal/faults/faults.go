// Package faults is the deterministic fault-injection subsystem. A Plan
// describes *what* can go wrong — inter-node latency spikes, sustained link
// degradation, and straggler ranks — and Compile turns it into an Injector
// the cluster and core layers consult at well-defined points. Nothing is
// ever lost: every fault is a delay. Every decision is a pure function of
// the plan seed and the identity of the event being decided (link
// endpoints, per-message sequence number), computed with a splitmix64-style
// finalizer: no wall clock, no shared PRNG stream, no dependence on the
// order in which the simulator happens to ask. Two runs with the same plan
// therefore inject byte-identical fault schedules, and concurrent
// simulations cannot perturb each other.
//
// All times in a Plan are virtual (platform.Time / platform.Duration,
// nanoseconds).
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dsmtx/internal/platform"
)

// Degrade is a sustained link degradation: while active, inter-node
// latency is multiplied by Factor (applied to every inter-node link).
type Degrade struct {
	From   platform.Time
	Dur    platform.Duration
	Factor float64 // >= 1
}

// Straggler slows one rank's compute: every compute quantum beginning
// inside the window costs Factor times its nominal virtual duration.
type Straggler struct {
	Rank   int
	From   platform.Time
	Dur    platform.Duration
	Factor float64 // >= 1
}

// Plan is a declarative fault schedule. The zero value injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision. Identical plans with
	// identical seeds produce identical fault schedules.
	Seed uint64
	// SpikeRate is the per-message probability of adding SpikeExtra
	// latency to an inter-node delivery.
	SpikeRate  float64
	SpikeExtra platform.Duration

	Degrades   []Degrade
	Stragglers []Straggler
}

// Empty reports whether the plan injects nothing at all. A seed alone does
// not make a plan non-empty: with no faults no injector is installed.
func (p *Plan) Empty() bool {
	return p == nil || (p.SpikeRate == 0 && len(p.Degrades) == 0 && len(p.Stragglers) == 0)
}

// Validate rejects plans that cannot be injected coherently. Rank upper
// bounds are the caller's business (the core layer knows the worker
// count); everything else is checked here.
func (p *Plan) Validate() error {
	if !(p.SpikeRate >= 0 && p.SpikeRate <= 1) {
		return fmt.Errorf("faults: spike rate %g outside [0,1]", p.SpikeRate)
	}
	if p.SpikeExtra < 0 {
		return fmt.Errorf("faults: spike extra latency %v negative", p.SpikeExtra)
	}
	if p.SpikeRate > 0 && p.SpikeExtra <= 0 {
		return fmt.Errorf("faults: spike rate %g needs a positive extra latency", p.SpikeRate)
	}
	for _, d := range p.Degrades {
		if !finiteFactor(d.Factor) {
			return fmt.Errorf("faults: degrade factor %g not a finite number >= 1", d.Factor)
		}
		if d.From < 0 || d.Dur <= 0 {
			return fmt.Errorf("faults: degrade window [%v +%v) invalid", d.From, d.Dur)
		}
	}
	for _, s := range p.Stragglers {
		if s.Rank < 0 {
			return fmt.Errorf("faults: straggler rank %d negative", s.Rank)
		}
		if !finiteFactor(s.Factor) {
			return fmt.Errorf("faults: straggler factor %g not a finite number >= 1", s.Factor)
		}
		if s.From < 0 || s.Dur <= 0 {
			return fmt.Errorf("faults: straggler window [%v +%v) invalid", s.From, s.Dur)
		}
	}
	return nil
}

// finiteFactor reports whether f is a usable slowdown factor: finite and at
// least 1. NaN fails every comparison, so it is refused too.
func finiteFactor(f float64) bool { return f >= 1 && !math.IsInf(f, 1) }

// Injector is a compiled, immutable Plan ready for consultation from the
// cluster (latency) and core (stragglers) layers. Safe for use from
// any number of concurrently running simulations because it holds no
// mutable state.
type Injector struct {
	plan       Plan
	stragglers map[int][]Straggler
}

// Compile validates the plan and indexes the per-rank straggler windows.
func Compile(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{plan: p}
	if len(p.Stragglers) > 0 {
		in.stragglers = make(map[int][]Straggler)
		for _, s := range p.Stragglers {
			in.stragglers[s.Rank] = append(in.stragglers[s.Rank], s)
		}
		for _, ws := range in.stragglers {
			sort.Slice(ws, func(i, j int) bool { return ws[i].From < ws[j].From })
		}
	}
	return in, nil
}

// HasLatencyFaults reports whether inter-node deliveries may be delayed
// (spikes or degradation).
func (in *Injector) HasLatencyFaults() bool {
	return in.plan.SpikeRate > 0 || len(in.plan.Degrades) > 0
}

// mix is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll maps a message identity on the from→to link to a uniform [0,1)
// float.
func (in *Injector) roll(from, to int, seq uint64) float64 {
	h := mix(in.plan.Seed)
	h = mix(h ^ (uint64(uint32(from))<<32 | uint64(uint32(to))))
	h = mix(h ^ seq)
	return float64(h>>11) / (1 << 53)
}

// ExtraLatency returns the additional delivery latency for message `seq`
// departing at virtual time `at`, given the link's base inter-node
// latency: a probabilistic spike plus any active sustained degradation
// window.
func (in *Injector) ExtraLatency(from, to int, seq uint64, at platform.Time, base platform.Duration) platform.Duration {
	var extra platform.Duration
	if in.plan.SpikeRate > 0 && in.roll(from, to, seq) < in.plan.SpikeRate {
		extra += in.plan.SpikeExtra
	}
	for _, d := range in.plan.Degrades {
		if at >= d.From && at < d.From+d.Dur {
			extra += platform.Duration(float64(base) * (d.Factor - 1))
		}
	}
	return extra
}

// DilationFor returns the compute-time dilation function for a rank, or
// nil if the rank never straggles. The returned function multiplies any
// compute quantum that *begins* inside a straggler window; quanta are
// microsecond-scale against millisecond-scale windows, so per-quantum
// resolution is accurate without splitting quanta across boundaries.
func (in *Injector) DilationFor(rank int) func(platform.Time, platform.Duration) platform.Duration {
	ws := in.stragglers[rank]
	if len(ws) == 0 {
		return nil
	}
	return func(now platform.Time, d platform.Duration) platform.Duration {
		for _, w := range ws {
			if now >= w.From && now < w.From+w.Dur {
				return platform.Duration(float64(d) * w.Factor)
			}
		}
		return d
	}
}

// ---------------------------------------------------------------------------
// Spec strings
//
// Plans travel through CLI flags and experiment-cache keys as compact spec
// strings. The grammar is a comma-separated clause list:
//
//	seed=N                      PRNG seed (decimal)
//	spike=F:DUR                 latency-spike probability and magnitude
//	degrade=Fx@START+DUR        sustained latency multiplier window
//	straggler=rR:Fx@START+DUR   per-rank compute multiplier window
//
// Durations accept ns/us/µs/ms/s suffixes. Format renders the canonical
// form (fixed clause order, sorted windows, smallest exact unit), and
// Parse(Format(p)) round-trips, so canonicalized specs are stable cache
// keys.

// Parse builds a Plan from a spec string. The empty string is the empty
// plan.
func Parse(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		key, val, ok := strings.Cut(clause, "=")
		if !ok || val == "" {
			return Plan{}, fmt.Errorf("faults: bad clause %q (want key=value)", clause)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseUint(val, 10, 64)
		case "spike":
			rate, dur, found := strings.Cut(val, ":")
			if !found {
				return Plan{}, fmt.Errorf("faults: bad spike %q (want RATE:DUR)", val)
			}
			if p.SpikeRate, err = parseRate(rate); err == nil {
				p.SpikeExtra, err = parseDur(dur)
			}
		case "degrade":
			var d Degrade
			if d.Factor, d.From, d.Dur, err = parseWindow(val); err == nil {
				p.Degrades = append(p.Degrades, d)
			}
		case "straggler":
			rank, rest, found := strings.Cut(val, ":")
			if !found {
				return Plan{}, fmt.Errorf("faults: bad straggler %q (want rR:Fx@START+DUR)", val)
			}
			var s Straggler
			if s.Rank, err = parseRank(rank); err == nil {
				if s.Factor, s.From, s.Dur, err = parseWindow(rest); err == nil {
					p.Stragglers = append(p.Stragglers, s)
				}
			}
		default:
			return Plan{}, fmt.Errorf("faults: unknown clause key %q", key)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("faults: clause %q: %v", clause, err)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Format renders the canonical spec string for the plan: clauses in fixed
// order, windows sorted, zero fields omitted. Format of the zero plan is
// "".
func (p *Plan) Format() string {
	if p == nil {
		return ""
	}
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	if p.Seed != 0 {
		add(fmt.Sprintf("seed=%d", p.Seed))
	}
	if p.SpikeRate != 0 {
		add("spike=" + fmtRate(p.SpikeRate) + ":" + fmtDur(p.SpikeExtra))
	}
	degrades := append([]Degrade(nil), p.Degrades...)
	sort.Slice(degrades, func(i, j int) bool {
		return degrades[i].From < degrades[j].From
	})
	for _, d := range degrades {
		add(fmt.Sprintf("degrade=%sx@%s+%s", fmtRate(d.Factor), fmtDur(platform.Duration(d.From)), fmtDur(d.Dur)))
	}
	stragglers := append([]Straggler(nil), p.Stragglers...)
	sort.Slice(stragglers, func(i, j int) bool {
		a, b := stragglers[i], stragglers[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.From < b.From
	})
	for _, s := range stragglers {
		add(fmt.Sprintf("straggler=r%d:%sx@%s+%s", s.Rank, fmtRate(s.Factor), fmtDur(platform.Duration(s.From)), fmtDur(s.Dur)))
	}
	return strings.Join(parts, ",")
}

func parseRate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}

func parseRank(s string) (int, error) {
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad rank %q (want rN)", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad rank %q (want rN)", s)
	}
	return n, nil
}

// parseWindow parses "Fx@START+DUR" (factor, window start, window length).
func parseWindow(s string) (factor float64, from platform.Time, dur platform.Duration, err error) {
	f, rest, ok := strings.Cut(s, "x@")
	if !ok {
		return 0, 0, 0, fmt.Errorf("bad window %q (want Fx@START+DUR)", s)
	}
	if factor, err = parseRate(f); err != nil {
		return 0, 0, 0, err
	}
	start, length, ok := strings.Cut(rest, "+")
	if !ok {
		return 0, 0, 0, fmt.Errorf("bad span %q (want START+DUR)", rest)
	}
	at, err := parseDur(start)
	if err != nil {
		return 0, 0, 0, err
	}
	if dur, err = parseDur(length); err != nil {
		return 0, 0, 0, err
	}
	return factor, platform.Time(at), dur, nil
}

var durUnits = []struct {
	suffix string
	scale  platform.Duration
}{
	{"ns", platform.Nanosecond},
	{"us", platform.Microsecond},
	{"µs", platform.Microsecond},
	{"ms", platform.Millisecond},
	{"s", platform.Second},
}

func parseDur(s string) (platform.Duration, error) {
	for _, u := range durUnits {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			// "s" also terminates "ns"/"us"/"ms"; the table is ordered so
			// the longer suffixes match first, but a trailing digit check
			// keeps "17" from slipping through as unitless. !(v >= 0)
			// refuses NaN; the bound refuses +Inf and anything past int64
			// nanoseconds.
			v, err := strconv.ParseFloat(num, 64)
			ns := v * float64(u.scale)
			if err != nil || !(v >= 0) || ns >= math.MaxInt64 {
				return 0, fmt.Errorf("bad duration %q", s)
			}
			return platform.Duration(ns), nil
		}
	}
	return 0, fmt.Errorf("bad duration %q (want number + ns/us/ms/s)", s)
}

// fmtDur renders a duration in its largest exact unit so canonical specs
// stay human-readable ("1500us", not "1500000ns").
func fmtDur(d platform.Duration) string {
	switch {
	case d == 0:
		return "0ns"
	case d%platform.Second == 0:
		return strconv.FormatInt(int64(d/platform.Second), 10) + "s"
	case d%platform.Millisecond == 0:
		return strconv.FormatInt(int64(d/platform.Millisecond), 10) + "ms"
	case d%platform.Microsecond == 0:
		return strconv.FormatInt(int64(d/platform.Microsecond), 10) + "us"
	default:
		return strconv.FormatInt(int64(d), 10) + "ns"
	}
}

// fmtRate renders probabilities and factors without trailing zeros.
func fmtRate(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
