package netrun

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	gonet "net"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"time"

	"dsmtx/internal/core"
	"dsmtx/internal/job"
	"dsmtx/internal/platform"
	"dsmtx/internal/wire"
)

// jobCounter makes job IDs unique within a coordinator process; combined
// with the PID they are unique enough across a machine to reject stale
// redials from a previous job.
var jobCounter atomic.Uint64

func newJobID() uint64 {
	return uint64(os.Getpid())<<32 | jobCounter.Add(1)
}

// Cluster is a coordinator's handle on a daemon fleet: either processes it
// spawned on loopback (LaunchLocal) or remote daemons it joined (Connect).
// The control connections persist across Run calls — daemons serve
// successive jobs on the same session — so a warm cluster amortizes spawn
// and dial cost over many jobs.
type Cluster struct {
	addrs []string
	conns []gonet.Conn
	procs []*exec.Cmd
}

// LaunchLocal forks daemons copies of exe (normally os.Args[0]) on
// loopback, reading each one's advertised listener address, and dials
// their control connections. The spawned process must divert into
// DaemonMain when DaemonEnv is set — dsmtxd, dsmtxrun and the test
// binaries that launch fleets all do.
func LaunchLocal(daemons int, exe string) (*Cluster, error) {
	if daemons < 1 {
		return nil, fmt.Errorf("netrun: need at least 1 daemon, got %d", daemons)
	}
	c := &Cluster{}
	for i := 0; i < daemons; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), DaemonEnv+"=1")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			c.Close()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			c.Close()
			return nil, fmt.Errorf("netrun: spawn daemon %d: %w", i, err)
		}
		c.procs = append(c.procs, cmd)
		addr, err := scrapeListenAddr(out)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("netrun: daemon %d: %w", i, err)
		}
		c.addrs = append(c.addrs, addr)
		// Keep draining the daemon's stdout so it never blocks on a full
		// pipe; anything after the advertisement is diagnostics.
		go func() { io.Copy(os.Stderr, out) }()
	}
	if err := c.dialControl(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Connect joins already-running daemons (dsmtxd -listen on each host) as
// their coordinator. Daemon order is rank order: the last address hosts
// the commit unit.
func Connect(addrs []string) (*Cluster, error) {
	if len(addrs) < 1 {
		return nil, fmt.Errorf("netrun: need at least one daemon address")
	}
	c := &Cluster{addrs: append([]string(nil), addrs...)}
	if err := c.dialControl(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// scrapeListenAddr reads daemon stdout until the listener advertisement.
func scrapeListenAddr(out io.Reader) (string, error) {
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, listenLine) {
			return strings.TrimSpace(strings.TrimPrefix(line, listenLine)), nil
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("daemon exited before advertising a listener")
}

// dialControl opens the control connection to every daemon.
func (c *Cluster) dialControl() error {
	for i, addr := range c.addrs {
		conn, err := gonet.DialTimeout("tcp", addr, handshakeTimeout)
		if err != nil {
			return fmt.Errorf("netrun: control dial daemon %d (%s): %w", i, addr, err)
		}
		if _, err := conn.Write(wire.AppendHello(nil, wire.Hello{Role: wire.RoleControl})); err != nil {
			conn.Close()
			return fmt.Errorf("netrun: control hello daemon %d: %w", i, err)
		}
		c.conns = append(c.conns, conn)
	}
	return nil
}

// ErrRejected marks a Run error returned before any frame was written: the
// coordinator refused the spec on its own, every control session is still
// in step, and the fleet can take the next job. Any other Run error leaves
// the sessions desynchronized.
var ErrRejected = errors.New("netrun: job rejected before dispatch")

// Run runs the DSMTX job the five-field spec names; until bench/ moves
// onto job.Spec.
func (c *Cluster) Run(s JobSpec) (Result, error) {
	return c.RunJob(job.Spec{Bench: s.Bench, Backend: core.BackendNet.String(), Cores: s.Cores,
		Scale: s.Scale, Seed: s.Seed, Rate: s.MisspecRate})
}

// RunJob executes one job across the fleet: check the normalized spec as
// every daemon will, so errors surface before any process starts working,
// distribute it, wait until every daemon has accepted it, start them all,
// and collect every daemon's result. The spec's backend must be net.
//
// JobOK then Start is the acceptance barrier: a daemon that refuses the
// spec fails the job at once with its typed error, and no daemon builds
// its mesh or dials a peer until Start, so every data dial follows every
// acceptance. After Start each daemon walks the whole invocation chain on
// its own; the mesh's generation tags order the invocations.
func (c *Cluster) RunJob(spec job.Spec) (Result, error) {
	spec = spec.Normalized()
	_, err := netChain(spec)
	if err == nil && spec.Cores < len(c.addrs) {
		err = fmt.Errorf("netrun: %d cores across %d daemons: need at least one rank per daemon", spec.Cores, len(c.addrs))
	}
	if err != nil {
		return Result{}, fmt.Errorf("%w: %w", ErrRejected, err)
	}

	// A fresh ID per job: a daemon closes any data hello that names another
	// job than the one it holds, so successive jobs on one session never
	// adopt each other's (or a stale redial's) data connections.
	jobID := newJobID()
	for i, conn := range c.conns {
		jw := jobWire{JobID: jobID, Self: i, Addrs: c.addrs, Spec: spec}
		if err := writeCtl(conn, wire.FrameJob, jw); err != nil {
			return Result{}, fmt.Errorf("netrun: job to daemon %d: %w", i, err)
		}
	}
	for i, conn := range c.conns {
		conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
		err := readCtl(conn, wire.FrameJobOK, nil)
		conn.SetReadDeadline(time.Time{})
		if err != nil {
			return Result{}, fmt.Errorf("netrun: daemon %d: %w", i, err)
		}
	}
	for i, conn := range c.conns {
		if err := writeCtl(conn, wire.FrameStart, nil); err != nil {
			return Result{}, fmt.Errorf("netrun: start to daemon %d: %w", i, err)
		}
	}

	res := Result{Daemons: len(c.conns)}
	var traffic platform.TrafficStats
	var subTXs uint64
	gotChecksum := false
	for i, conn := range c.conns {
		var dr daemonResult
		if err := readCtl(conn, wire.FrameResult, &dr); err != nil {
			return Result{}, fmt.Errorf("netrun: result from daemon %d: %w", i, err)
		}
		traffic.Add(dr.Traffic)
		subTXs += dr.SubTXs
		res.Mesh.Add(dr.Mesh)
		if dr.HasChecksum {
			if gotChecksum {
				return Result{}, fmt.Errorf("netrun: two daemons claim the commit rank")
			}
			gotChecksum = true
			res.Result = dr.Result
		}
	}
	res.Traffic, res.SubTXs = traffic, subTXs
	if !gotChecksum {
		return Result{}, fmt.Errorf("netrun: no daemon reported the committed checksum")
	}
	return res, nil
}

// Close tears the fleet down: control connections first (daemons exit when
// their job ends and the stream closes), then the spawned processes.
func (c *Cluster) Close() {
	for _, conn := range c.conns {
		conn.Close()
	}
	c.conns = nil
	for _, cmd := range c.procs {
		if cmd.Process == nil {
			continue
		}
		done := make(chan struct{})
		go func(cmd *exec.Cmd) { cmd.Wait(); close(done) }(cmd)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
	c.procs = nil
}
