// Package engine owns the job lifecycle that was previously smeared across
// the harness, the netrun coordinator, and the CLIs: a JobSpec names one
// benchmark execution completely (workload, paradigm, backend, input scale,
// config knobs), Engine.Submit runs it with bounded admission, persistent
// net daemon fleets, and a content-addressed result cache, and every
// caller — figure sweeps, dsmtxrun, the dsmtxd job server — is a thin
// client of Submit.
package engine

import (
	"fmt"

	"dsmtx/internal/cluster"
	"dsmtx/internal/core"
	"dsmtx/internal/faults"
	"dsmtx/internal/platform"
	netplat "dsmtx/internal/platform/net"
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
	KnobBigCluster = "bigcluster"  // Figure S: 64 × 16 cores, same InfiniBand
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
	case KnobBigCluster:
		return func(cfg *core.Config) { cfg.Cluster = cluster.BigClusterConfig() }, nil
	}
	return nil, fmt.Errorf("engine: unknown config knob %q", knob)
}

// JobSpec is the complete identity of one job: everything that can change
// its result, and nothing else. MTXs commit in a predefined order, so a
// run's outcome is a pure function of this description — which is why the
// one type can be the memo key and singleflight key (it is comparable) and,
// marshalled to canonical JSON (struct field order is fixed) and prefixed
// by the source fingerprint, the result-cache address.
type JobSpec struct {
	Kind     string  `json:"kind"`
	Bench    string  `json:"bench,omitempty"`
	Paradigm string  `json:"paradigm,omitempty"`
	Backend  string  `json:"backend,omitempty"`
	Cores    int     `json:"cores,omitempty"`
	Scale    int     `json:"scale,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	Knob     string  `json:"knob,omitempty"`
	// Faults is a canonical faults.Plan spec string (faults.Plan.Format),
	// empty for fault-free jobs. Canonical form matters: two spellings of
	// one plan must not split cache entries.
	Faults string `json:"faults,omitempty"`
	// CommitShards partitions the commit pipeline; 0 or 1 is the paper's
	// single commit unit.
	CommitShards int `json:"commit_shards,omitempty"`
	// Verify asks the engine to also resolve the sequential vtime
	// reference and report whether the parallel checksum matches — the
	// serving path's correctness gate.
	Verify bool `json:"verify,omitempty"`
}

// Normalized returns the spec in canonical form: defaults made explicit
// where they change identity (kind, paradigm, backend, scale) so
// equivalent submissions share one cache entry and one singleflight slot.
func (s JobSpec) Normalized() JobSpec {
	if s.Kind == "" {
		s.Kind = KindParallel
	}
	if s.Kind == KindSeq {
		// The sequential reference always runs in vtime on one core;
		// paradigm, backend, cores, and shards do not apply.
		s.Paradigm, s.Backend, s.Cores, s.CommitShards = "", "", 0, 0
		s.Verify = false
	} else {
		if s.Paradigm == "" {
			s.Paradigm = workloads.DSMTX.String()
		}
		if s.Backend == "" {
			s.Backend = core.BackendVTime.String()
		}
		if s.CommitShards == 1 {
			s.CommitShards = 0
		}
	}
	if s.Scale <= 0 {
		s.Scale = 1
	}
	return s
}

// seqSpec derives the sequential-reference spec a Verify job resolves.
func (s JobSpec) seqSpec() JobSpec {
	return JobSpec{Kind: KindSeq, Bench: s.Bench, Scale: s.Scale, Seed: s.Seed,
		Rate: s.Rate, Knob: s.Knob}.Normalized()
}

// Validate rejects specs the engine cannot run. The spec must already be
// normalized.
func (s JobSpec) Validate() error {
	if s.Bench == "" {
		return fmt.Errorf("engine: job needs a benchmark name")
	}
	b, err := workloads.ByName(s.Bench)
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
		return fmt.Errorf("engine: unknown job kind %q", s.Kind)
	}
	if s.Paradigm != workloads.DSMTX.String() && s.Paradigm != workloads.TLS.String() {
		return fmt.Errorf("engine: unknown paradigm %q (have DSMTX, TLS)", s.Paradigm)
	}
	backend, err := core.ParseBackend(s.Backend)
	if err != nil {
		return err
	}
	if s.Cores < 1 {
		return fmt.Errorf("engine: parallel job needs cores >= 1, got %d", s.Cores)
	}
	if err := core.CheckBackend(backend, s.Faults != "", s.CommitShards); err != nil {
		return fmt.Errorf("engine: JobSpec.%w", err)
	}
	if backend == core.BackendNet {
		// The daemon wire spec carries neither; accepting them would cache a
		// default run under the requested variation's key.
		if s.Paradigm != workloads.DSMTX.String() {
			return fmt.Errorf("engine: the net backend runs the DSMTX paradigm only")
		}
		if s.Knob != KnobNone {
			return fmt.Errorf("engine: knob %q: config knobs are not forwarded to net daemons; run it on vtime or host", s.Knob)
		}
	}
	// Build the configuration the run will use: what only core can see — too
	// few cores for the plan's workers, more ranks than the machine — is a
	// spec error here, not a failed job after admission.
	tune, err := s.tune(nil)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(s.Cores, workloads.NewChain(b, s.input()).Plan(s.paradigm()))
	tune(&cfg)
	return cfg.Validate()
}

// tune composes the configuration hook the spec names — knob, then faults,
// then backend/shards — and attaches tr (nil for none).
func (s JobSpec) tune(tr *trace.Tracer) (func(*core.Config), error) {
	knob, err := KnobTune(s.Knob)
	if err != nil {
		return nil, err
	}
	var plan *faults.Plan
	if s.Faults != "" {
		p, err := faults.Parse(s.Faults)
		if err != nil {
			return nil, err
		}
		plan = &p
	}
	backend := s.backend()
	shards := s.CommitShards
	return func(cfg *core.Config) {
		if knob != nil {
			knob(cfg)
		}
		if plan != nil {
			cfg.Faults = plan
		}
		cfg.Backend = backend
		if shards > 1 {
			cfg.CommitShards = shards
		}
		cfg.Tracer = tr
	}, nil
}

// backend parses the spec's backend (vtime for seq jobs). The spec must be
// normalized and validated.
func (s JobSpec) backend() core.Backend {
	if s.Kind == KindSeq {
		return core.BackendVTime
	}
	b, _ := core.ParseBackend(s.Backend)
	return b
}

// paradigm parses the spec's paradigm.
func (s JobSpec) paradigm() workloads.Paradigm {
	if s.Paradigm == workloads.TLS.String() {
		return workloads.TLS
	}
	return workloads.DSMTX
}

// coresNeeded is the job's claim against the engine's core budget.
func (s JobSpec) coresNeeded() int {
	if s.Kind == KindSeq {
		return 1
	}
	return s.Cores
}

// input builds the workload input the spec names.
func (s JobSpec) input() workloads.Input {
	return workloads.Input{Scale: s.Scale, Seed: s.Seed, MisspecRate: s.Rate}
}

// String renders a compact human label.
func (s JobSpec) String() string {
	s = s.Normalized()
	label := s.Bench + " seq"
	if s.Kind != KindSeq {
		label = fmt.Sprintf("%s %s@%d/%s", s.Bench, s.Paradigm, s.Cores, s.Backend)
	}
	if s.Knob != "" {
		label += "/" + s.Knob
	}
	if s.Faults != "" {
		label += "/" + s.Faults
	}
	if s.CommitShards > 1 {
		label += fmt.Sprintf("/cs%d", s.CommitShards)
	}
	return label
}

// Options carries per-submission settings that are deliberately not part
// of the job's identity: an observability sink cannot be hashed and
// placement does not change results. A submission with a Tracer bypasses
// the cache and the coalescer.
type Options struct {
	// Tracer attaches the trace/metrics registry — the one record of what
	// each unit did — to the run. In-process backends only: net ranks live
	// in the daemons.
	Tracer *trace.Tracer
	// NetDaemons is the loopback fleet size a net-backend job spawns when
	// NetJoin is empty (default 2).
	NetDaemons int
	// NetJoin lists already-running daemon addresses to join instead of
	// spawning (last hosts the commit unit).
	NetJoin []string
}

// plain reports whether the submission carries no observability sink and
// is therefore cacheable.
func (o Options) plain() bool { return o.Tracer == nil }

// netDaemons resolves the loopback fleet size (default 2).
func (o Options) netDaemons() int {
	if o.NetDaemons <= 0 {
		return 2
	}
	return o.NetDaemons
}

// validate rejects options the spec's backend cannot honour.
func (o Options) validate(spec JobSpec) error {
	if spec.backend() == core.BackendNet && o.Tracer != nil {
		return fmt.Errorf("engine: Options.Tracer: net ranks run in the daemon processes; a coordinator-side tracer has nothing to attach to")
	}
	return nil
}

// Result is a completed job's outcome. For parallel jobs the embedded
// workloads.Result carries the run — the same record on every backend, net
// adding Daemons and Mesh; for seq jobs SeqTime/SeqCheck do. It is also the
// cached record, stored as-is: Stalls never serializes and is empty on
// cacheable submissions anyway, and a hit overwrites Source.
type Result struct {
	workloads.Result
	// SeqTime/SeqCheck are the sequential reference (seq jobs always;
	// parallel jobs when the spec asked to Verify).
	SeqTime  platform.Duration `json:"seq_time,omitempty"`
	SeqCheck uint64            `json:"seq_check,omitempty"`
	// Verified is true when Verify was requested and the parallel checksum
	// matches the sequential reference.
	Verified bool `json:"verified,omitempty"`
	// Daemons is the net-backend fleet size (0 otherwise).
	Daemons int `json:"daemons,omitempty"`
	// Mesh is the net backend's TCP transport counters folded over the
	// fleet (zero otherwise).
	Mesh netplat.MeshStats `json:"mesh,omitzero"`
	// Source tells how the result was satisfied: "run", "cache", or
	// "coalesced" (another in-flight submission of the same spec).
	Source string `json:"source,omitempty"`
}
