// Package netrun orchestrates distributed jobs on the net backend: a
// coordinator process launches (or joins) dsmtxd daemons, distributes the
// job spec, drives the invocation barrier, and collects the result; each
// daemon hosts a contiguous range of ranks on a mesh-bound platform
// (internal/platform/net) and drives the benchmark's invocation chain
// (workloads.Chain) — the unmodified core runtime — over it, so a net job's
// record is the one every backend returns.
package netrun

import (
	"encoding/json"
	"fmt"
	gonet "net"
	"time"

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

// JobSpec is everything a daemon needs to reconstruct the run: the
// benchmark by name plus the runtime knobs. Every daemon builds an
// identical core.Config from it, so rank layout agrees across processes.
type JobSpec struct {
	Bench       string
	Scale       int
	MisspecRate float64
	Seed        uint64
	Cores       int
}

// chain resolves the spec's benchmark and input into its invocation chain.
func (s JobSpec) chain() (*workloads.Chain, error) {
	b, err := workloads.ByName(s.Bench)
	if err != nil {
		return nil, err
	}
	in := workloads.Input{Scale: s.Scale, MisspecRate: s.MisspecRate, Seed: s.Seed}
	return workloads.NewChain(b, in), nil
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

// daemonResult is one daemon's share of the job. Protocol counters are only
// nonzero on the commit daemon (the commit unit owns them), which alone
// reports a checksum; traffic and mesh counters are accounted where the
// sends happen and SubTXs where the workers run, so every daemon contributes.
type daemonResult struct {
	workloads.Result
	Mesh        netplat.MeshStats
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

// handshakeTimeout bounds the control-plane waits that should be instant
// (hello, job acceptance); invocation barriers wait without deadline —
// run time belongs to the workload.
const handshakeTimeout = 20 * time.Second
