// Package netrun orchestrates distributed jobs on the net backend: a
// coordinator process launches (or joins) dsmtxd daemons, distributes the
// job spec, drives the invocation barrier, and collects the result; each
// daemon hosts a contiguous range of ranks on a mesh-bound platform
// (internal/platform/net) and runs the unmodified core runtime over it.
//
// The package is deliberately ignorant of concrete workloads: a provider —
// registered by internal/workloads at init — resolves a JobSpec's benchmark
// name into programs, so daemons embedded in any binary that links the
// workload set (dsmtxd, dsmtxrun, test binaries) can serve jobs
// without netrun importing the workload table.
package netrun

import (
	"encoding/json"
	"fmt"
	gonet "net"
	"time"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/platform"
	netplat "dsmtx/internal/platform/net"
	"dsmtx/internal/wire"
)

// DaemonEnv marks a process as a spawn-local daemon: when set to 1, main
// (and TestMain) divert into DaemonMain before flag parsing, so any binary
// that links netrun can re-exec itself as a daemon fleet.
const DaemonEnv = "DSMTX_NET_DAEMON"

// ListenEnv optionally overrides the spawn-local daemon's listen address
// (default loopback with an ephemeral port).
const ListenEnv = "DSMTX_NET_LISTEN"

// listenLine is the advertisement a daemon prints on stdout once its
// listener is bound; the coordinator scrapes the address after it.
const listenLine = "DSMTXD LISTEN "

// JobSpec is everything a daemon needs to reconstruct the run: the
// benchmark by name plus the runtime knobs. Every daemon builds an
// identical core.Config from it, so rank layout agrees across processes.
type JobSpec struct {
	Bench       string
	Scale       int
	MisspecRate float64
	Seed        uint64
	Cores       int
	// Invocations overrides the benchmark's invocation count when > 0
	// (tests use 0 = the benchmark's own).
	Invocations int
}

// Program is what a provider yields per invocation: a runnable core
// program that also knows its plan and output checksum.
type Program interface {
	core.Program
	Plan() pipeline.Plan
	Checksum(img *mem.Image) uint64
}

// ProgramSet is one benchmark's invocation chain.
type ProgramSet struct {
	Invocations int
	New         func(inv int) Program
}

// Provider resolves a job spec into programs.
type Provider func(spec JobSpec) (ProgramSet, error)

var provider Provider

// SetProvider installs the workload resolver. Called from an init function
// (internal/workloads registers the benchmark table).
func SetProvider(p Provider) { provider = p }

// Result is the coordinator's aggregate over all daemons and invocations.
type Result struct {
	Checksum  uint64
	Committed uint64
	Misspecs  uint64
	// Elapsed is the commit daemon's summed per-invocation platform time
	// (wall-clock on the net backend).
	Elapsed platform.Duration
	// Traffic sums every daemon's locally-accounted wire traffic.
	Traffic platform.TrafficStats
	// Mesh folds every daemon's transport counters: what the TCP mesh did
	// to carry the cross-daemon share of Traffic.
	Mesh    netplat.MeshStats
	Daemons int
}

// Control-plane bodies (JSON: orchestration is rare, debuggable beats
// compact).

type jobWire struct {
	JobID uint64
	Self  int
	Addrs []string
	Spec  JobSpec
}

type jobOKWire struct {
	Invocations int
}

type startWire struct {
	Inv int
}

type invDoneWire struct {
	Inv int
}

type errorWire struct {
	Error string
}

// daemonResult is one daemon's summed contribution. Protocol counters are
// only nonzero on the commit daemon (the commit unit owns them); traffic and
// mesh counters are accounted where the sends happen, so every daemon
// contributes.
type daemonResult struct {
	Committed   uint64
	Misspecs    uint64
	Elapsed     platform.Duration
	Traffic     platform.TrafficStats
	Mesh        netplat.MeshStats
	Checksum    uint64
	HasChecksum bool
}

// writeCtl sends one JSON-bodied control frame.
func writeCtl(conn gonet.Conn, typ wire.FrameType, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(body) > wire.MaxFrame {
		return fmt.Errorf("netrun: control body %d bytes exceeds frame limit", len(body))
	}
	_, err = conn.Write(wire.AppendFrame(nil, typ, body))
	return err
}

// readCtl reads one control frame and unmarshals it into v (pass nil to
// accept any body). It returns the frame type so callers can branch on
// errors and state mismatches.
func readCtl(conn gonet.Conn, want wire.FrameType, v any) error {
	typ, body, _, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return err
	}
	if typ == wire.FrameError {
		var e errorWire
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("netrun: remote: %s", e.Error)
		}
		return fmt.Errorf("netrun: remote error")
	}
	if typ != want {
		return fmt.Errorf("netrun: expected frame %d, got %d", want, typ)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

// buildConfig is the one place a net run's core.Config is assembled, so
// coordinator-side validation and every daemon agree on the layout.
func buildConfig(spec JobSpec, plan pipeline.Plan) core.Config {
	cfg := core.DefaultConfig(spec.Cores, plan)
	cfg.Backend = core.BackendNet
	return cfg
}

// handshakeTimeout bounds the control-plane waits that should be instant
// (hello, job acceptance); invocation barriers wait without deadline —
// run time belongs to the workload.
const handshakeTimeout = 20 * time.Second
