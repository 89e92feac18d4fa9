// Package netrun orchestrates distributed jobs on the net backend: a
// coordinator process launches (or joins) dsmtxd daemons, distributes the
// job spec, starts the fleet once every daemon has accepted it, and
// collects the result; each daemon hosts a contiguous range of ranks on a
// mesh-bound platform (internal/platform/net) and walks the benchmark's
// whole invocation chain (workloads.Chain) — the unmodified core runtime —
// over it, one mesh generation per invocation, so a net job's record is
// the one every backend returns.
package netrun

import (
	"encoding/json"
	"fmt"
	gonet "net"
	"time"

	"dsmtx/internal/core"
	"dsmtx/internal/job"
	netplat "dsmtx/internal/platform/net"
	"dsmtx/internal/wire"
	"dsmtx/internal/workloads"
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

// JobSpec is the five-field DSMTX spec bench/ still builds (Cluster.Run);
// until bench/ moves onto job.Spec (ROADMAP "`bench/` housekeeping").
type JobSpec struct {
	Bench       string
	Scale       int
	MisspecRate float64
	Seed        uint64
	Cores       int
}

// netChain validates a spec for a net fleet and resolves its invocation
// chain: the one check the coordinator and every daemon run on the spec
// the Job frame carries.
func netChain(spec job.Spec) (*workloads.Chain, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if b := spec.ParsedBackend(); b != core.BackendNet {
		return nil, fmt.Errorf("netrun: a %s job cannot run on a net fleet", b)
	}
	return spec.Chain()
}

// Result is a net job's record: the commit daemon's (the commit unit owns
// the protocol counters, the committed image and so the checksum; Elapsed is
// its summed per-invocation wall-clock time) with what every daemon accounts
// locally — wire traffic, stage bodies its workers ran — folded into Traffic
// and SubTXs.
type Result struct {
	workloads.Result
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
	Spec  job.Spec // normalized
}

type errorWire struct {
	Error string
}

// daemonResult is one daemon's share of the job. Protocol counters are only
// nonzero on the commit daemon (the commit unit owns them), which alone
// reports a checksum; traffic and mesh counters are accounted where the
// sends happen and SubTXs where the workers run, so every daemon contributes.
type daemonResult struct {
	workloads.Result
	Mesh        netplat.MeshStats
	HasChecksum bool
}

// writeCtl sends one JSON-bodied control frame (v nil: no body).
func writeCtl(conn gonet.Conn, typ wire.FrameType, v any) error {
	var body []byte
	var err error
	if v != nil {
		if body, err = json.Marshal(v); err != nil {
			return err
		}
	}
	if len(body) > wire.MaxFrame {
		return fmt.Errorf("netrun: control body %d bytes exceeds frame limit", len(body))
	}
	_, err = conn.Write(wire.AppendFrame(nil, typ, body))
	return err
}

// readCtl reads one control frame of type want and unmarshals its body
// into v (pass nil to ignore the body); a FrameError becomes the remote's
// error.
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

// handshakeTimeout bounds the control-plane waits that should be instant
// (hello, job acceptance); the result waits without deadline — run time
// belongs to the workload.
const handshakeTimeout = 20 * time.Second
