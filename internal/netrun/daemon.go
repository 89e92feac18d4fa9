package netrun

import (
	"errors"
	"fmt"
	"io"
	gonet "net"
	"os"
	"sync"
	"time"

	"dsmtx/internal/core"
	"dsmtx/internal/platform"
	netplat "dsmtx/internal/platform/net"
	"dsmtx/internal/wire"
)

// DaemonMain is the spawn-local daemon entry point: bind a listener
// (loopback/ephemeral unless ListenEnv overrides), advertise it on stdout,
// serve one coordinator session (a stream of jobs on one control
// connection), and exit when the coordinator hangs up. Binaries call it
// from main/TestMain when DaemonEnv is set, before any flag parsing.
func DaemonMain() int {
	addr := os.Getenv(ListenEnv)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := gonet.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmtxd: %v\n", err)
		return 1
	}
	fmt.Printf("%s%s\n", listenLine, ln.Addr())
	return Serve(ln)
}

// Serve accepts one coordinator session on ln — a control connection
// carrying successive Job frames, plus each job's data connections — and
// returns an exit code when the coordinator disconnects. The listener is
// closed on return. Spawn-local daemons use this: their lifetime is their
// coordinator's.
func Serve(ln gonet.Listener) int {
	d := newDaemon(ln)
	go d.acceptLoop()
	code := <-d.sessionDone
	d.close()
	ln.Close()
	return code
}

// ServeLoop serves coordinator sessions until stop is closed: when one
// coordinator disconnects the daemon stays up and accepts the next — the
// persistent `dsmtxd -listen` fleet mode. On stop it closes the listener
// (new sessions are rejected at the TCP level), waits for the in-flight
// session to finish its current job stream, and returns the last nonzero
// session code (0 when every session succeeded).
func ServeLoop(ln gonet.Listener, stop <-chan struct{}) int {
	d := newDaemon(ln)
	go d.acceptLoop()
	exit := 0
	for {
		select {
		case code := <-d.sessionDone:
			if code != 0 {
				exit = code
			}
		case <-stop:
			ln.Close()
			d.drain()
			d.close()
			return exit
		}
	}
}

// newDaemon builds the serving state.
func newDaemon(ln gonet.Listener) *daemon {
	return &daemon{
		ln:          ln,
		meshes:      make(map[uint64]*netplat.Mesh),
		arrival:     make(map[uint64]chan struct{}),
		finished:    make(map[uint64]bool),
		sessionDone: make(chan int, 1),
	}
}

// daemon is one serving process's state: at most one coordinator session
// at a time, each a stream of jobs; every job owns a mesh, and inbound
// data connections are routed to their job's mesh by the JobID in their
// hello.
type daemon struct {
	ln gonet.Listener

	mu       sync.Mutex
	meshes   map[uint64]*netplat.Mesh
	arrival  map[uint64]chan struct{} // closed when the job's mesh registers
	finished map[uint64]bool          // jobs already torn down (stale data conns)
	ctlBusy  bool
	ctlIdle  *sync.Cond // signalled when ctlBusy drops (drain waits)
	closed   bool

	sessionDone chan int // one code per completed coordinator session
}

// acceptLoop dispatches inbound connections on their first frame: the
// coordinator's control stream runs the job stream; peer data streams park
// until their job's spec has built the mesh, then join it.
func (d *daemon) acceptLoop() {
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return
		}
		go d.dispatch(conn)
	}
}

func (d *daemon) dispatch(conn gonet.Conn) {
	typ, body, _, err := wire.ReadFrame(conn, nil)
	if err != nil || typ != wire.FrameHello {
		conn.Close()
		return
	}
	h, err := wire.ParseHello(body)
	if err != nil {
		conn.Close()
		return
	}
	switch h.Role {
	case wire.RoleControl:
		d.mu.Lock()
		if d.ctlBusy || d.closed {
			d.mu.Unlock()
			// One coordinator at a time; a concurrent second one is
			// rejected by closing its stream.
			conn.Close()
			return
		}
		d.ctlBusy = true
		d.mu.Unlock()
		code := d.control(conn)
		d.mu.Lock()
		d.ctlBusy = false
		// Job tombstones belong to the ended session; a persistent daemon
		// would otherwise accrete one per job forever.
		d.finished = make(map[uint64]bool)
		if d.ctlIdle != nil {
			d.ctlIdle.Broadcast()
		}
		d.mu.Unlock()
		d.sessionDone <- code
	case wire.RoleData:
		// The peer may dial before our own job spec arrives; wait for the
		// job's mesh, then hand over.
		m := d.meshFor(h.JobID)
		if m == nil {
			conn.Close()
			return
		}
		if err := m.AcceptData(conn, h); err != nil {
			fmt.Fprintf(os.Stderr, "dsmtxd: %v\n", err)
		}
	default:
		conn.Close()
	}
}

// registerMesh publishes a job's mesh and wakes data connections parked on
// its JobID.
func (d *daemon) registerMesh(jobID uint64, m *netplat.Mesh) {
	d.mu.Lock()
	d.meshes[jobID] = m
	if ch, ok := d.arrival[jobID]; ok {
		close(ch)
		delete(d.arrival, jobID)
	}
	d.mu.Unlock()
}

// unregisterMesh retires a finished job: its mesh closes and late data
// dials for it are rejected instead of parked.
func (d *daemon) unregisterMesh(jobID uint64) {
	d.mu.Lock()
	m := d.meshes[jobID]
	delete(d.meshes, jobID)
	d.finished[jobID] = true
	if ch, ok := d.arrival[jobID]; ok {
		close(ch)
		delete(d.arrival, jobID)
	}
	d.mu.Unlock()
	if m != nil {
		m.Close()
	}
}

// meshFor resolves the mesh serving jobID, waiting (bounded by the
// handshake timeout) for the job spec to arrive on the control stream. It
// returns nil for unknown-and-never-arriving or already-finished jobs.
func (d *daemon) meshFor(jobID uint64) *netplat.Mesh {
	d.mu.Lock()
	if m, ok := d.meshes[jobID]; ok {
		d.mu.Unlock()
		return m
	}
	if d.finished[jobID] || d.closed {
		d.mu.Unlock()
		return nil
	}
	ch, ok := d.arrival[jobID]
	if !ok {
		ch = make(chan struct{})
		d.arrival[jobID] = ch
	}
	d.mu.Unlock()

	select {
	case <-ch:
		d.mu.Lock()
		m := d.meshes[jobID]
		d.mu.Unlock()
		return m
	case <-time.After(handshakeTimeout):
		return nil
	}
}

// drain blocks until the in-flight coordinator session (if any) finishes.
func (d *daemon) drain() {
	d.mu.Lock()
	if d.ctlIdle == nil {
		d.ctlIdle = sync.NewCond(&d.mu)
	}
	for d.ctlBusy {
		d.ctlIdle.Wait()
	}
	d.mu.Unlock()
}

// close rejects future data waits and wakes parked ones.
func (d *daemon) close() {
	d.mu.Lock()
	d.closed = true
	for id, ch := range d.arrival {
		close(ch)
		delete(d.arrival, id)
	}
	d.mu.Unlock()
}

// control serves one coordinator session: a stream of jobs on one
// connection, ending cleanly when the coordinator closes it. Any job error
// is reported back as a FrameError and ends the session (the stream is
// desynchronized).
func (d *daemon) control(conn gonet.Conn) int {
	defer conn.Close()
	for {
		err := d.serveJob(conn)
		switch {
		case err == nil:
			// Job done; wait for the coordinator's next Job frame.
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, gonet.ErrClosed):
			return 0
		default:
			_ = writeCtl(conn, wire.FrameError, errorWire{Error: err.Error()})
			fmt.Fprintf(os.Stderr, "dsmtxd: %v\n", err)
			return 1
		}
	}
}

// serveJob runs this daemon's ranks of one job: validate the spec, build the
// mesh, then walk the benchmark's invocation chain with each step bracketed
// by the coordinator's Start/InvDone barrier, configured by the spec's own
// tune hook plus a mesh-bound platform.
func (d *daemon) serveJob(conn gonet.Conn) error {
	var jw jobWire
	if err := readCtl(conn, wire.FrameJob, &jw); err != nil {
		return err
	}
	spec := jw.Spec
	chain, err := netChain(spec)
	if err != nil {
		return err
	}
	tune, err := spec.Tune(nil)
	if err != nil {
		return err
	}

	mesh := netplat.NewMesh(netplat.MeshConfig{
		JobID: jw.JobID,
		Self:  jw.Self,
		Addrs: jw.Addrs,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dsmtxd[%d]: "+format+"\n", append([]any{jw.Self}, args...)...)
		},
	})
	d.registerMesh(jw.JobID, mesh)
	defer d.unregisterMesh(jw.JobID)

	if err := writeCtl(conn, wire.FrameJobOK, jobOKWire{Invocations: chain.Invocations()}); err != nil {
		return err
	}

	var agg daemonResult
	for inv := range chain.Invocations() {
		var start startWire
		if err := readCtl(conn, wire.FrameStart, &start); err != nil {
			return err
		}
		if start.Inv != inv {
			return fmt.Errorf("netrun: start for invocation %d, expected %d", start.Inv, inv)
		}
		err := chain.Step(&agg.Result, spec.ParsedParadigm(), spec.Cores, func(cfg *core.Config) {
			tune(cfg)
			cfg.Platform = func(ranks int) (platform.Platform, error) {
				return mesh.Platform(uint64(inv), ranks, spec.Cores)
			}
		})
		if err != nil {
			return fmt.Errorf("netrun: %w", err)
		}
		if err := writeCtl(conn, wire.FrameInvDone, invDoneWire{Inv: inv}); err != nil {
			return err
		}
	}
	// The commit rank lands on the last daemon (contiguous split), which
	// therefore chained the committed image and owns the checksum; the other
	// daemons rebuilt their views through Copy-On-Access.
	agg.HasChecksum = jw.Self == len(jw.Addrs)-1
	if agg.HasChecksum {
		agg.Checksum = chain.Checksum()
	}
	agg.Mesh = mesh.Stats()
	return writeCtl(conn, wire.FrameResult, agg)
}
