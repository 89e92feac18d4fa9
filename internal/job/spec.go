// Package job is the identity of one benchmark execution. A Spec names the
// run completely (workload, paradigm, backend, input, config knobs), and
// its Tune hook is the one configuration build every runner applies: the
// engine's in-process backends and each net daemon for its own ranks, so a
// net job runs what the same spec runs on vtime or host.
package job

import (
	"fmt"

	"dsmtx/internal/cluster"
	"dsmtx/internal/core"
	"dsmtx/internal/trace"
	"dsmtx/internal/workloads"
)

// Job kinds.
const (
	KindParallel = "parallel" // one parallel benchmark run (the default)
	KindSeq      = "seq"      // the sequential vtime reference
)

// Named configuration variations. A cache key must capture everything that
// changes a result and an opaque tune closure cannot be hashed, so every
// variation a client may request is registered here by name.
const (
	KnobNone       = ""
	KnobQueueUnopt = "queue-unopt" // Fig. 5b: flush every produce
	KnobManycore   = "manycore"    // §7: coherence-free manycore machine model
)

// KnobTune resolves a knob name to its configuration hook (nil for
// KnobNone).
func KnobTune(knob string) (func(*core.Config), error) {
	switch knob {
	case KnobNone:
		return nil, nil
	case KnobQueueUnopt:
		return func(cfg *core.Config) { cfg.Queue = cfg.Queue.Unoptimized() }, nil
	case KnobManycore:
		return func(cfg *core.Config) { cfg.Cluster = cluster.ManycoreConfig() }, nil
	}
	return nil, fmt.Errorf("job: unknown config knob %q", knob)
}

// Spec is the complete identity of one job: everything that can change its
// result, and nothing else. MTXs commit in a predefined order, so a run's
// outcome is a pure function of this description — which is why the one
// type can be the memo key and singleflight key (it is comparable), the
// body a net coordinator sends its daemons and, marshalled to canonical
// JSON (struct field order is fixed) and prefixed by the source
// fingerprint, the result-cache address.
type Spec struct {
	Kind     string  `json:"kind"`
	Bench    string  `json:"bench,omitempty"`
	Paradigm string  `json:"paradigm,omitempty"`
	Backend  string  `json:"backend,omitempty"`
	Cores    int     `json:"cores,omitempty"`
	Scale    int     `json:"scale,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	Knob     string  `json:"knob,omitempty"`
	// Verify asks the engine to also resolve the sequential vtime
	// reference and report whether the parallel checksum matches — the
	// serving path's correctness gate.
	Verify bool `json:"verify,omitempty"`
}

// Normalized returns the spec in canonical form: defaults made explicit
// where they change identity (kind, paradigm, backend, scale) so
// equivalent submissions share one cache entry and one singleflight slot.
func (s Spec) Normalized() Spec {
	if s.Kind == "" {
		s.Kind = KindParallel
	}
	if s.Kind == KindSeq {
		// The sequential reference always runs in vtime on one core;
		// paradigm, backend and cores do not apply.
		s.Paradigm, s.Backend, s.Cores = "", "", 0
		s.Verify = false
	} else {
		if s.Paradigm == "" {
			s.Paradigm = workloads.DSMTX.String()
		}
		if s.Backend == "" {
			s.Backend = core.BackendVTime.String()
		}
	}
	if s.Scale <= 0 {
		s.Scale = 1
	}
	return s
}

// Validate rejects specs no backend can run as written. The spec must
// already be normalized.
func (s Spec) Validate() error {
	if s.Bench == "" {
		return fmt.Errorf("job: spec needs a benchmark name")
	}
	if !(s.Rate >= 0 && s.Rate <= 1) { // NaN fails both comparisons
		return fmt.Errorf("job: rate %g outside [0,1]", s.Rate)
	}
	chain, err := s.Chain()
	if err != nil {
		return err
	}
	if _, err := KnobTune(s.Knob); err != nil {
		return err
	}
	switch s.Kind {
	case KindSeq:
		return nil
	case KindParallel:
	default:
		return fmt.Errorf("job: unknown job kind %q", s.Kind)
	}
	paradigm, err := workloads.ParseParadigm(s.Paradigm)
	if err != nil {
		return fmt.Errorf("job: %w", err)
	}
	if _, err := core.ParseBackend(s.Backend); err != nil {
		return err
	}
	if s.Cores < 1 {
		return fmt.Errorf("job: parallel job needs cores >= 1, got %d", s.Cores)
	}
	// Build the configuration the run will use: what only core can see — too
	// few cores for the plan's workers, more ranks than the machine — is a
	// spec error here, not a failed job after admission.
	tune, err := s.Tune(nil)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(s.Cores, chain.Plan(paradigm))
	tune(&cfg)
	return cfg.Validate()
}

// Tune composes the configuration hook the spec names — knob, then
// backend — and attaches tr (nil for none). A net daemon adds
// only its mesh platform on top.
func (s Spec) Tune(tr *trace.Tracer) (func(*core.Config), error) {
	knob, err := KnobTune(s.Knob)
	if err != nil {
		return nil, err
	}
	backend := s.ParsedBackend()
	return func(cfg *core.Config) {
		if knob != nil {
			knob(cfg)
		}
		cfg.Backend = backend
		cfg.Tracer = tr
	}, nil
}

// Chain resolves the spec's benchmark and input into its invocation chain.
func (s Spec) Chain() (*workloads.Chain, error) {
	b, err := workloads.ByName(s.Bench)
	if err != nil {
		return nil, err
	}
	return workloads.NewChain(b, s.Input()), nil
}

// ParsedBackend parses the spec's backend (vtime for seq jobs). The spec
// must be normalized and validated.
func (s Spec) ParsedBackend() core.Backend {
	if s.Kind == KindSeq {
		return core.BackendVTime
	}
	b, _ := core.ParseBackend(s.Backend)
	return b
}

// ParsedParadigm parses the spec's paradigm. The spec must be normalized
// and validated.
func (s Spec) ParsedParadigm() workloads.Paradigm {
	p, _ := workloads.ParseParadigm(s.Paradigm)
	return p
}

// Input builds the workload input the spec names.
func (s Spec) Input() workloads.Input {
	return workloads.Input{Scale: s.Scale, Seed: s.Seed, MisspecRate: s.Rate}
}

// String renders a compact human label.
func (s Spec) String() string {
	s = s.Normalized()
	label := s.Bench + " seq"
	if s.Kind != KindSeq {
		label = fmt.Sprintf("%s %s@%d/%s", s.Bench, s.Paradigm, s.Cores, s.Backend)
	}
	if s.Knob != "" {
		label += "/" + s.Knob
	}
	return label
}
