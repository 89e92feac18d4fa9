// Package net is the distributed execution backend: each daemon process
// hosts a contiguous range of ranks on an embedded host platform, and a
// Mesh of TCP connections carries every cross-daemon message as a wire
// frame. The runtime protocol above is unchanged — commit order is
// predefined, so the transport only has to deliver reliably and in
// per-link order, which one TCP session per daemon pair provides for the
// life of the job. A session that ends without the peer's Goodbye is a
// lost peer: the mesh aborts, and with it the bound platform, so the job
// fails on every side at once instead of waiting on the dead link.
//
// Split of responsibilities: a Mesh lives for a whole job (connections
// persist across invocations); a Platform wraps one fresh host platform
// per invocation and binds it to the mesh under a generation number.
// Frames for a generation that has not bound yet are buffered and drained
// at bind; frames for a finished generation are dropped.
package net

import (
	"bufio"
	"fmt"
	gonet "net"
	"sync"
	"sync/atomic"
	"time"

	"dsmtx/internal/platform"
	"dsmtx/internal/platform/host"
	"dsmtx/internal/trace"
	"dsmtx/internal/wire"
)

// MeshConfig describes one daemon's view of the job's connection mesh.
type MeshConfig struct {
	// JobID pairs connections with their job; a Hello with the wrong job is
	// rejected (a stale daemon from a previous run dialing).
	JobID uint64
	// Self is this daemon's index in Addrs.
	Self int
	// Addrs lists every daemon's data listener address, indexed by daemon.
	// Daemon i dials daemon j iff i > j, so Addrs[j] for j >= Self is never
	// dialed and may be empty.
	Addrs []string
	// Logf, when set, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// flushBatch bounds how many queued messages a writer drains into one
// buffered write before flushing — batched flush without unbounded latency.
const flushBatch = 64

// outDepth is the per-peer send queue depth; senders block when it fills,
// which backpressures workers against a slow link (or one not yet up).
const outDepth = 4096

// closeLinger bounds how long a closing writer, its Goodbye sent, waits for
// the peer to end the session before it closes the socket anyway.
const closeLinger = 2 * time.Second

// frameHeaderLen is the wire framing overhead per frame, for byte counts.
var frameHeaderLen = len(wire.AppendFrame(nil, wire.FrameGoodbye, nil))

// dialGiveUp bounds how long a peer's session may take to come up: the
// dialing side retries that long before it declares the peer unreachable,
// and the accepting side waits that long before it declares the peer never
// connected. Either aborts the job. A variable so tests can shorten the
// give-up window.
var dialGiveUp = 20 * time.Second

// Mesh is one daemon's set of peer connections for a job.
type Mesh struct {
	cfg   MeshConfig
	peers []*peer

	mu      sync.Mutex
	bound   *binding
	pending map[uint64][]platform.Message
	failure error

	done     chan struct{} // closed by Close: writers say Goodbye and exit
	aborted  chan struct{} // closed by abort: senders stop blocking
	closeOne sync.Once
	wg       sync.WaitGroup

	lns   []gonet.Listener
	lnsMu sync.Mutex
}

// MeshStats is a snapshot of a mesh's transport counters summed over its
// peers; Add folds the daemons of a job together. Frames are data frames,
// one per cross-daemon message: FramesOut counts messages accepted for
// sending and FramesIn frames read, so over a finished job the sums agree;
// BytesOut is added as the writer encodes and can trail while frames are
// queued. FramesOut/Flushes is frames per write syscall.
type MeshStats struct {
	FramesOut, BytesOut uint64
	FramesIn, BytesIn   uint64
	Flushes             uint64 // buffered-writer flushes that carried data frames
	OutQueueMax         uint64 // high-water mark of the per-peer send queue (capacity outDepth); Add takes the maximum
}

// Add folds another snapshot into s.
func (s *MeshStats) Add(o MeshStats) {
	s.FramesOut += o.FramesOut
	s.BytesOut += o.BytesOut
	s.FramesIn += o.FramesIn
	s.BytesIn += o.BytesIn
	s.Flushes += o.Flushes
	s.OutQueueMax = max(s.OutQueueMax, o.OutQueueMax)
}

// Stats snapshots the mesh's counters; safe to call at any time.
func (m *Mesh) Stats() MeshStats {
	var s MeshStats
	for _, p := range m.peers {
		if p == nil {
			continue
		}
		c := &p.ctr
		s.Add(MeshStats{
			FramesOut: c.framesOut.Load(), BytesOut: c.bytesOut.Load(),
			FramesIn: c.framesIn.Load(), BytesIn: c.bytesIn.Load(),
			Flushes:     c.flushes.Load(),
			OutQueueMax: uint64(c.outQueue.Max()),
		})
	}
	return s
}

// peerCounters backs MeshStats. Each field has one writer goroutine (the
// peer's writer or its reader) except framesOut and outQueue, which
// sending ranks bump; Stats reads them all from outside, hence atomics.
type peerCounters struct {
	framesOut, bytesOut atomic.Uint64
	framesIn, bytesIn   atomic.Uint64
	flushes             atomic.Uint64
	outQueue            trace.Gauge // read for its high-water mark
}

// binding is the platform currently attached to the mesh.
type binding struct {
	gen      uint64
	plat     *host.Platform
	daemonOf func(rank int) int
}

// NewMesh builds the mesh and starts dialing every lower-indexed peer.
// Connections to higher-indexed peers arrive through AcceptData (or
// ServeListener); one that has not arrived within dialGiveUp aborts the
// mesh. Messages queued before a connection is up are sent once it is, so
// callers need no readiness barrier.
func NewMesh(cfg MeshConfig) *Mesh {
	m := &Mesh{
		cfg:     cfg,
		pending: make(map[uint64][]platform.Message),
		done:    make(chan struct{}),
		aborted: make(chan struct{}),
	}
	m.peers = make([]*peer, len(cfg.Addrs))
	for i := range m.peers {
		if i == cfg.Self {
			continue
		}
		p := &peer{
			m:      m,
			idx:    i,
			out:    make(chan outMsg, outDepth),
			connCh: make(chan *session, 1),
		}
		m.peers[i] = p
		m.wg.Add(1)
		go p.writeLoop()
		if cfg.Self > i {
			go p.dial()
		} else {
			p.giveUp = time.AfterFunc(dialGiveUp, p.neverConnected)
		}
	}
	return m
}

// logf emits a connection diagnostic when the config asked for them.
func (m *Mesh) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Err reports the mesh failure, or nil.
func (m *Mesh) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failure
}

// abort latches the first transport failure and fails the bound platform so
// every blocked rank unwinds instead of waiting on a link that died.
func (m *Mesh) abort(err error) {
	m.mu.Lock()
	first := m.failure == nil
	if first {
		m.failure = err
	}
	b := m.bound
	m.mu.Unlock()
	if !first {
		return
	}
	// Log before anything unwinds: a caller that returns once its ranks
	// have failed may stop accepting diagnostics.
	m.logf("net: mesh abort: %v", err)
	close(m.aborted)
	if b != nil {
		b.plat.Abort(err)
	}
}

// closing reports whether Close has begun.
func (m *Mesh) closing() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// Close says Goodbye on every connection, stops the listeners this mesh
// serves, and waits for the writer goroutines, each of which lingers until
// its peer ends the session (at most closeLinger). Call after the last
// invocation's result is collected — at that point the protocol guarantees
// every message has been consumed.
func (m *Mesh) Close() {
	m.closeOne.Do(func() { close(m.done) })
	m.lnsMu.Lock()
	for _, ln := range m.lns {
		ln.Close()
	}
	m.lns = nil
	m.lnsMu.Unlock()
	m.wg.Wait()
}

// send queues msg for the daemon owning msg.To. Called from rank
// goroutines via the host platform's remote hook.
func (m *Mesh) send(gen uint64, daemonOf func(int) int, msg platform.Message) {
	p := m.peers[daemonOf(msg.To)]
	select {
	case p.out <- outMsg{gen: gen, msg: msg}:
		p.ctr.framesOut.Add(1)
		p.ctr.outQueue.Set(int64(len(p.out)))
	case <-m.aborted:
		// The job is failing; the sender will be unwound on its next
		// Advance. Dropping is safe — nobody will consume this message.
	case <-m.done:
	}
}

// route delivers an inbound message to the bound platform, or buffers it
// for a generation that has not bound yet. Stale generations are dropped.
// Injection for the bound generation happens under the mesh lock so a
// concurrent Bind cannot reorder a peer's frames around its pending drain.
func (m *Mesh) route(gen uint64, msg platform.Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := m.bound
	switch {
	case b != nil && gen == b.gen:
		b.plat.Inject(msg)
	case b == nil || gen > b.gen:
		m.pending[gen] = append(m.pending[gen], msg)
	default:
		// gen < bound: a straggler from a finished invocation.
	}
}

// bind attaches a platform as the given generation, draining any frames
// that arrived early and forgetting older generations.
func (m *Mesh) bind(gen uint64, b *binding) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failure != nil {
		return m.failure
	}
	if m.bound != nil && gen <= m.bound.gen {
		return fmt.Errorf("net: generation %d already bound (have %d)", gen, m.bound.gen)
	}
	m.bound = b
	for g := range m.pending {
		if g < gen {
			delete(m.pending, g)
		}
	}
	for _, msg := range m.pending[gen] {
		b.plat.Inject(msg)
	}
	delete(m.pending, gen)
	return nil
}

// outMsg is one queued cross-daemon message with its generation tag.
type outMsg struct {
	gen uint64
	msg platform.Message
}

// session is the one TCP connection to a peer. dead is closed when its
// reader stops, so an idle writer still learns the session ended.
type session struct {
	conn    gonet.Conn
	dead    chan struct{}
	deadOne sync.Once
	bye     atomic.Bool // the peer said Goodbye: the session ended, it was not lost
}

func (s *session) kill() { s.deadOne.Do(func() { close(s.dead) }) }

// peer is the send/receive state for one remote daemon.
type peer struct {
	m   *Mesh
	idx int

	out    chan outMsg
	connCh chan *session           // hands the session to the writer
	sess   atomic.Pointer[session] // the one session, once attached
	// giveUp, on the accepting side, runs neverConnected. attach stops it:
	// a pending timer keeps the whole mesh reachable until it fires.
	giveUp *time.Timer

	ctr peerCounters
}

// dial connects to the peer with exponential backoff, performs the Hello
// exchange, and attaches the session. Gives up (and aborts the mesh) after
// dialGiveUp of consecutive failures.
func (p *peer) dial() {
	addr := p.m.cfg.Addrs[p.idx]
	backoff := 50 * time.Millisecond
	deadline := time.Now().Add(dialGiveUp)
	for {
		select {
		case <-p.m.done:
			return
		case <-p.m.aborted:
			return
		default:
		}
		conn, err := gonet.DialTimeout("tcp", addr, 5*time.Second)
		if err == nil {
			if err = p.handshakeDial(conn); err == nil {
				if err := p.attach(conn); err != nil {
					p.m.abort(err)
				}
				return
			}
			conn.Close()
		}
		if time.Now().After(deadline) {
			p.m.abort(fmt.Errorf("net: peer %d (%s) unreachable: %w", p.idx, addr, err))
			return
		}
		p.m.logf("net: dial peer %d (%s): %v; retrying in %v", p.idx, addr, err, backoff)
		select {
		case <-time.After(backoff):
		case <-p.m.done:
			return
		case <-p.m.aborted:
			return
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// neverConnected runs dialGiveUp after NewMesh for a peer that dials this
// daemon, and aborts the mesh if the peer has not attached its session.
func (p *peer) neverConnected() {
	if p.sess.Load() == nil && !p.m.closing() {
		p.m.abort(fmt.Errorf("net: peer %d never connected", p.idx))
	}
}

// handshakeDial runs the dialer side of the Hello exchange: send ours, read
// theirs.
func (p *peer) handshakeDial(conn gonet.Conn) error {
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	defer conn.SetDeadline(time.Time{})
	ours := wire.Hello{Role: wire.RoleData, JobID: p.m.cfg.JobID, Peer: p.m.cfg.Self}
	if _, err := conn.Write(wire.AppendHello(nil, ours)); err != nil {
		return err
	}
	typ, body, _, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return err
	}
	if typ != wire.FrameHello {
		return fmt.Errorf("net: expected hello, got frame type %d", typ)
	}
	theirs, err := wire.ParseHello(body)
	if err != nil {
		return err
	}
	if theirs.JobID != p.m.cfg.JobID || theirs.Peer != p.idx {
		return fmt.Errorf("net: hello mismatch: job %d peer %d", theirs.JobID, theirs.Peer)
	}
	return nil
}

// AcceptData attaches an inbound data connection whose Hello has already
// been read (the daemon's listener dispatches on the first frame). It
// replies with this side's Hello and starts the session. A peer gets one
// session per mesh: a second data connection from it is refused.
func (m *Mesh) AcceptData(conn gonet.Conn, h wire.Hello) error {
	if h.JobID != m.cfg.JobID {
		conn.Close()
		return fmt.Errorf("net: hello for job %d, serving %d", h.JobID, m.cfg.JobID)
	}
	if h.Peer < 0 || h.Peer >= len(m.peers) || m.peers[h.Peer] == nil || h.Peer == m.cfg.Self {
		conn.Close()
		return fmt.Errorf("net: hello from unknown peer %d", h.Peer)
	}
	p := m.peers[h.Peer]
	if p.sess.Load() != nil {
		conn.Close()
		return fmt.Errorf("net: peer %d already has a session", h.Peer)
	}
	ours := wire.Hello{Role: wire.RoleData, JobID: m.cfg.JobID, Peer: m.cfg.Self}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	_, err := conn.Write(wire.AppendHello(nil, ours))
	conn.SetDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return err
	}
	return p.attach(conn)
}

// ServeListener accepts data connections on ln until the mesh closes —
// the accept loop a standalone daemon (or an in-process test mesh) needs.
// The listener is closed by Mesh.Close.
func (m *Mesh) ServeListener(ln gonet.Listener) {
	m.lnsMu.Lock()
	m.lns = append(m.lns, ln)
	m.lnsMu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed by Close
			}
			go func() {
				typ, body, _, err := wire.ReadFrame(conn, nil)
				if err != nil {
					conn.Close()
					return
				}
				h, err := wire.ParseHello(body)
				if typ != wire.FrameHello || err != nil {
					conn.Close()
					return
				}
				if err := m.AcceptData(conn, h); err != nil {
					m.logf("%v", err)
				}
			}()
		}
	}()
}

// attach makes conn the peer's one session, starts its reader and hands it
// to the writer.
func (p *peer) attach(conn gonet.Conn) error {
	s := &session{conn: conn, dead: make(chan struct{})}
	if !p.sess.CompareAndSwap(nil, s) {
		conn.Close()
		return fmt.Errorf("net: peer %d already has a session", p.idx)
	}
	if p.giveUp != nil {
		p.giveUp.Stop()
	}
	go p.readLoop(s)
	p.connCh <- s // buffered for the one session: never blocks
	return nil
}

// end closes a session. Unless the peer said Goodbye or this mesh is
// closing, the session was lost, and so is the job: the mesh aborts.
func (p *peer) end(s *session, err error) {
	s.kill()
	s.conn.Close()
	if s.bye.Load() || p.m.closing() {
		return
	}
	p.m.abort(fmt.Errorf("net: peer %d session lost: %w", p.idx, err))
}

// readLoop demultiplexes the session's inbound frames: data frames are
// routed into the bound platform's mailboxes, Goodbye ends the session
// cleanly, a read error ends it as lost, and a corrupt or unexpected frame
// aborts the mesh.
func (p *peer) readLoop(s *session) {
	defer s.kill()
	var buf []byte
	for {
		typ, body, nbuf, err := wire.ReadFrame(s.conn, buf)
		if err != nil {
			p.end(s, err)
			return
		}
		buf = nbuf
		switch typ {
		case wire.FrameMsg:
			d := wire.NewDecoder(body)
			gen := d.Uvarint()
			msg := d.Message()
			if d.Err() != nil {
				p.m.abort(fmt.Errorf("net: corrupt frame from peer %d: %w", p.idx, d.Err()))
				return
			}
			p.ctr.framesIn.Add(1)
			p.ctr.bytesIn.Add(uint64(frameHeaderLen + len(body)))
			p.m.route(gen, msg)
		case wire.FrameGoodbye:
			s.bye.Store(true)
			return
		default:
			p.m.abort(fmt.Errorf("net: unexpected frame type %d from peer %d", typ, p.idx))
			return
		}
	}
}

// writeMsg encodes om's data frame into enc, reusing its buffer, and
// writes it to bw.
func (p *peer) writeMsg(bw *bufio.Writer, enc *wire.Encoder, om outMsg) error {
	if err := p.encode(enc, om); err != nil {
		// Unencodable payload is a protocol bug, not a link failure.
		p.m.abort(err)
		return nil
	}
	p.ctr.bytesOut.Add(uint64(enc.Len()))
	_, err := bw.Write(enc.Bytes())
	return err
}

// encode builds om's data frame in enc. A registered codec may panic on a
// payload it cannot represent (e.g. an Entry carrying a non-serializable
// type) — a protocol bug, surfaced as a job failure rather than a daemon
// crash.
func (p *peer) encode(enc *wire.Encoder, om outMsg) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("net: encoding for peer %d: %v", p.idx, r)
		}
	}()
	enc.Reset()
	start := enc.BeginFrame(wire.FrameMsg)
	enc.Uvarint(om.gen)
	if err := enc.Message(om.msg); err != nil {
		return err
	}
	enc.FinishFrame(start)
	return nil
}

// writeLoop owns the peer's outbound side. Once it stops writing — Goodbye
// said, the session ended, or the mesh aborted before one came up — it
// drains and drops whatever is still sent to the peer until Close, so no
// sender ever blocks on a link that carries nothing more. A session that
// comes up after an abort is closed at once.
func (p *peer) writeLoop() {
	defer p.m.wg.Done()
	p.write()
	for {
		select {
		case <-p.out:
		case s := <-p.connCh:
			s.conn.Close()
		case <-p.m.done:
			return
		}
	}
}

// write waits for the session, then encodes queued messages into frames
// with batched flush until Close (Goodbye and linger) or the session ends.
func (p *peer) write() {
	var s *session
	select {
	case s = <-p.connCh:
	case <-p.m.done:
		return
	case <-p.m.aborted:
		return
	}
	bw := bufio.NewWriterSize(s.conn, 64<<10)
	var enc wire.Encoder
	for {
		select {
		case om := <-p.out:
			err := p.writeMsg(bw, &enc, om)
			// Batched flush: drain whatever else is queued (bounded) before
			// paying the syscall.
			for n := 0; err == nil && n < flushBatch; n++ {
				select {
				case om := <-p.out:
					err = p.writeMsg(bw, &enc, om)
					continue
				default:
				}
				break
			}
			if err == nil {
				// Counted before the syscall so a receiver that has the
				// frames never reads a count that lacks their flush.
				p.ctr.flushes.Add(1)
				err = bw.Flush()
			}
			if err != nil {
				p.end(s, err)
				return
			}
		case <-s.dead:
			// The reader saw the peer's Goodbye, or ended the session as lost.
			s.conn.Close()
			return
		case <-p.m.done:
			// Close follows the local ranks' exit, so their last sends are
			// queued by now — but select may take done ahead of out. Send
			// them before the Goodbye, or the peer's ranks wait forever.
			for len(p.out) > 0 && p.writeMsg(bw, &enc, <-p.out) == nil {
			}
			enc.Reset()
			enc.FinishFrame(enc.BeginFrame(wire.FrameGoodbye))
			bw.Write(enc.Bytes())
			bw.Flush()
			linger(s)
			return
		}
	}
}

// linger closes a session after this side's Goodbye without a reset. It
// shuts only the write half, then lets the session's reader consume what
// the peer still sends until the peer's Goodbye or EOF (or closeLinger),
// and only then closes the socket. Closing with the peer's bytes unread
// would make the kernel answer with a reset, and a peer that is mid-send
// would lose frames it has not read yet, this side's last ones and its
// Goodbye included.
func linger(s *session) {
	if cw, ok := s.conn.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	select {
	case <-s.dead:
	case <-time.After(closeLinger):
	}
	s.conn.Close()
}
