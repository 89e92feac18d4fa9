package netrun

import (
	"errors"
	"fmt"
	"io"
	gonet "net"
	"os"
	"sync"

	"dsmtx/internal/core"
	"dsmtx/internal/platform"
	netplat "dsmtx/internal/platform/net"
	"dsmtx/internal/wire"
)

// DaemonMain is the spawn-local daemon entry point: bind an ephemeral
// loopback listener, advertise it on stdout, serve one coordinator session
// (a stream of jobs on one control connection), and exit when the
// coordinator hangs up. Binaries call it from main/TestMain when DaemonEnv
// is set, before any flag parsing.
func DaemonMain() int {
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
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
	d := &daemon{ln: ln, sessionDone: make(chan int, 1)}
	d.ctlIdle = sync.NewCond(&d.mu)
	return d
}

// daemon is one serving process's state: at most one coordinator session
// at a time, each a stream of jobs, and at most one job at a time — the one
// it last sent JobOK for. That job's mesh is built when first needed: at
// Start, or when a peer that read Start first dials in. Start follows every
// daemon's JobOK, so every data dial follows every acceptance, and a data
// hello naming any other job is closed at once.
type daemon struct {
	ln gonet.Listener

	mu      sync.Mutex
	job     *netplat.MeshConfig // the held job's mesh config; nil between jobs
	mesh    *netplat.Mesh       // the held job's mesh, once built
	ctlBusy bool
	ctlIdle *sync.Cond // signalled when ctlBusy drops (drain waits)
	closed  bool

	sessionDone chan int // one code per completed coordinator session
}

// acceptLoop dispatches inbound connections on their first frame: the
// coordinator's control stream runs the job stream; a peer's data stream
// joins the held job's mesh, building it if this daemon has not yet read
// Start, and is closed at once if it names any other job.
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
		d.ctlIdle.Broadcast()
		d.mu.Unlock()
		d.sessionDone <- code
	case wire.RoleData:
		m := d.meshOf(h.JobID)
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

// meshOf returns the held job's mesh, building it on first need, or nil
// when jobID names any other job.
func (d *daemon) meshOf(jobID uint64) *netplat.Mesh {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.job == nil || d.job.JobID != jobID {
		return nil
	}
	if d.mesh == nil {
		d.mesh = netplat.NewMesh(*d.job)
	}
	return d.mesh
}

// release drops the held job and closes its mesh, if one was built.
func (d *daemon) release() {
	d.mu.Lock()
	m := d.mesh
	d.job, d.mesh = nil, nil
	d.mu.Unlock()
	if m != nil {
		m.Close()
	}
}

// drain blocks until the in-flight coordinator session (if any) finishes.
func (d *daemon) drain() {
	d.mu.Lock()
	for d.ctlBusy {
		d.ctlIdle.Wait()
	}
	d.mu.Unlock()
}

// close rejects any later coordinator session.
func (d *daemon) close() {
	d.mu.Lock()
	d.closed = true
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

// serveJob runs this daemon's ranks of one job: validate the spec, hold the
// job and accept it, then — on the coordinator's Start — build the mesh and
// walk the benchmark's whole invocation chain, each step on its own mesh
// generation, configured by the spec's own tune hook plus a mesh-bound
// platform. A refused job is never held: it builds no mesh and dials no one.
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

	d.mu.Lock()
	d.job = &netplat.MeshConfig{
		JobID: jw.JobID,
		Self:  jw.Self,
		Addrs: jw.Addrs,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dsmtxd[%d]: "+format+"\n", append([]any{jw.Self}, args...)...)
		},
	}
	d.mu.Unlock()
	defer d.release()

	if err := writeCtl(conn, wire.FrameJobOK, nil); err != nil {
		return err
	}
	if err := readCtl(conn, wire.FrameStart, nil); err != nil {
		return err
	}
	mesh := d.meshOf(jw.JobID)

	var agg daemonResult
	for inv := range chain.Invocations() {
		err := chain.Step(&agg.Result, spec.ParsedParadigm(), spec.Cores, func(cfg *core.Config) {
			tune(cfg)
			cfg.Platform = func(ranks int) (platform.Platform, error) {
				return mesh.Platform(uint64(inv), ranks, spec.Cores)
			}
		})
		if err != nil {
			return fmt.Errorf("netrun: %w", err)
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
