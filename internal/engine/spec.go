// Package engine owns the job lifecycle that was previously smeared across
// the harness, the netrun coordinator, and the CLIs: a job.Spec names one
// benchmark execution completely (workload, paradigm, backend, input scale,
// config knobs), Engine.Submit runs it with bounded admission, persistent
// net daemon fleets, and a content-addressed result cache, and every
// caller — figure sweeps, dsmtxrun, the dsmtxd job server — is a thin
// client of Submit.
package engine

import (
	"fmt"

	"dsmtx/internal/core"
	"dsmtx/internal/job"
	"dsmtx/internal/platform"
	netplat "dsmtx/internal/platform/net"
	"dsmtx/internal/trace"
	"dsmtx/internal/workloads"
)

// JobSpec and KindParallel are the names bench/ builds jobs with; until
// bench/ moves onto job.Spec (ROADMAP "`bench/` housekeeping").
type JobSpec = job.Spec

// KindParallel is job.KindParallel; until bench/ moves onto job.Spec.
const KindParallel = job.KindParallel

// Options carries per-submission settings that are deliberately not part
// of the job's identity (job.Spec): an observability sink cannot be hashed and
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

// Validate rejects options the spec's backend cannot honour: on net, a
// Tracer (ROADMAP "One job, one trace" would carry spans back from the
// daemons).
func (o Options) Validate(spec job.Spec) error {
	if spec.ParsedBackend() == core.BackendNet && o.Tracer != nil {
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
