// Package net is the distributed execution backend: each daemon process
// hosts a contiguous range of ranks on an embedded host platform, and a
// Mesh of TCP connections carries every cross-daemon message as a wire
// frame. The runtime protocol above is unchanged — commit order is
// predefined, so the transport only has to deliver reliably and in
// per-link order, which one TCP connection per daemon pair plus
// serial-number sequencing and reconnect-replay provides.
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
	// rejected (a stale daemon from a previous run redialing).
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

// ackEvery is how many accepted frames a reader lets accumulate before
// publishing a cumulative ack (which trims the sender's replay log).
const ackEvery = 64

// outDepth is the per-peer send queue depth; senders block when it fills,
// which backpressures workers against a slow link.
const outDepth = 4096

// closeLinger bounds how long a closing writer, its Goodbye sent, waits for
// the peer to end the session before it closes the socket anyway.
const closeLinger = 2 * time.Second

// A frameLog's free list keeps at most freeMax buffers (two ack windows, the
// replay log's steady-state length) and none that held a frame above
// freeFrameMax — those are rare and not worth pinning.
const freeMax, freeFrameMax = 2 * ackEvery, 64 << 10

// frameHeaderLen is the wire framing overhead per frame, for byte counts.
var frameHeaderLen = len(wire.AppendFrame(nil, wire.FrameGoodbye, nil))

// dialGiveUp bounds total redial time before the mesh declares the peer
// unreachable and aborts the job. A variable so tests can shorten the
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
	abortOne sync.Once
	closeOne sync.Once
	wg       sync.WaitGroup

	lns   []gonet.Listener
	lnsMu sync.Mutex
}

// MeshStats is a snapshot of a mesh's transport counters summed over its
// peers; Add folds the daemons of a job together. Frames are data frames,
// one per cross-daemon message: FramesOut counts messages accepted for
// sending (once each, however often a reconnect replays them) and FramesIn
// frames admitted in order, so over a finished job the sums agree; BytesOut
// is added as the writer encodes and can trail while frames are queued.
// FramesOut/Flushes is frames per write syscall.
type MeshStats struct {
	FramesOut, BytesOut uint64
	FramesIn, BytesIn   uint64
	Flushes             uint64 // buffered-writer flushes that carried data frames
	AcksOut, AcksIn     uint64
	DupsDropped         uint64 // replayed frames the reader had already admitted
	Reconnects          uint64 // sessions a writer lost (each is redialed or re-accepted)
	// High-water marks (Add takes the maximum): the replay log of unacked
	// frames, and the per-peer send queue (capacity outDepth).
	ReplayFramesMax, ReplayBytesMax uint64
	OutQueueMax                     uint64
}

// Add folds another snapshot into s.
func (s *MeshStats) Add(o MeshStats) {
	s.FramesOut += o.FramesOut
	s.BytesOut += o.BytesOut
	s.FramesIn += o.FramesIn
	s.BytesIn += o.BytesIn
	s.Flushes += o.Flushes
	s.AcksOut += o.AcksOut
	s.AcksIn += o.AcksIn
	s.DupsDropped += o.DupsDropped
	s.Reconnects += o.Reconnects
	s.ReplayFramesMax = max(s.ReplayFramesMax, o.ReplayFramesMax)
	s.ReplayBytesMax = max(s.ReplayBytesMax, o.ReplayBytesMax)
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
			Flushes: c.flushes.Load(),
			AcksOut: c.acksOut.Load(), AcksIn: c.acksIn.Load(),
			DupsDropped: c.dups.Load(), Reconnects: c.reconnects.Load(),
			ReplayFramesMax: uint64(c.replayFrames.Max()), ReplayBytesMax: uint64(c.replayBytes.Max()),
			OutQueueMax: uint64(c.outQueue.Max()),
		})
	}
	return s
}

// peerCounters backs MeshStats. Each field has one writer goroutine (the
// peer's writer or its current reader) except framesOut and outQueue, which
// sending ranks bump; Stats reads them all from outside, hence atomics.
type peerCounters struct {
	framesOut, bytesOut       atomic.Uint64
	framesIn, bytesIn         atomic.Uint64
	flushes                   atomic.Uint64
	acksOut, acksIn           atomic.Uint64
	dups, reconnects          atomic.Uint64
	replayFrames, replayBytes trace.Gauge // read for their high-water marks
	outQueue                  trace.Gauge
}

// binding is the platform currently attached to the mesh.
type binding struct {
	gen     uint64
	plat    *host.Platform
	ownerOf func(rank int) int
}

// NewMesh builds the mesh and starts dialing every lower-indexed peer.
// Connections to higher-indexed peers arrive through AcceptData (or
// ServeListener). Messages queued before a connection is up are sent once
// it is, so callers need no readiness barrier.
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
			m:       m,
			idx:     i,
			dialer:  cfg.Self > i,
			out:     make(chan outMsg, outDepth),
			connCh:  make(chan *session, 1),
			ackIn:   make(chan wire.Seq, 16),
			ackNote: make(chan struct{}, 1),
		}
		m.peers[i] = p
		m.wg.Add(1)
		go p.writeLoop()
		if p.dialer {
			p.dialing.Store(true)
			go p.dial()
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
	if m.failure == nil {
		m.failure = err
	}
	b := m.bound
	m.mu.Unlock()
	m.abortOne.Do(func() { close(m.aborted) })
	if b != nil {
		b.plat.Abort(err)
	}
	m.logf("net: mesh abort: %v", err)
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
func (m *Mesh) send(gen uint64, ownerOf func(int) int, msg platform.Message) {
	p := m.peers[ownerOf(msg.To)]
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

// route delivers an accepted inbound message to the bound platform, or
// buffers it for a generation that has not bound yet. Stale generations are
// dropped. Injection for the bound generation happens under the mesh lock
// so a concurrent Bind cannot reorder a peer's frames around its pending
// drain.
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

// session is one live TCP connection to a peer. A new session replaces the
// old one on reconnect; dead is closed by whichever side notices failure
// first so an idle writer still learns the conn is gone.
type session struct {
	conn     gonet.Conn
	peerLast wire.Seq // peer's last received seq, from its Hello: replay after this
	dead     chan struct{}
	deadOne  sync.Once
	bye      atomic.Bool // the peer said Goodbye: the session ended, it was not lost
}

func (s *session) kill() { s.deadOne.Do(func() { close(s.dead) }) }

// sentFrame is one unacked data frame kept for reconnect-replay, still in
// the encoder it was built in.
type sentFrame struct {
	seq wire.Seq
	enc *wire.Encoder
}

// frameLog is a writer's replay log of unacked frames plus the free list
// their buffers cycle through. The writer goroutine owns both ends — take,
// encode, push, and trim on ack — so steady-state sending allocates nothing
// and needs neither a lock nor a sync.Pool.
type frameLog struct {
	frames []sentFrame
	bytes  int // encoded bytes held in frames
	free   []*wire.Encoder
}

// take returns an empty encoder to build the next frame in.
func (l *frameLog) take() *wire.Encoder {
	n := len(l.free)
	if n == 0 {
		return new(wire.Encoder)
	}
	fe := l.free[n-1]
	l.free = l.free[:n-1]
	fe.Reset()
	return fe
}

// push appends a finished frame to the log.
func (l *frameLog) push(seq wire.Seq, fe *wire.Encoder) {
	l.frames = append(l.frames, sentFrame{seq: seq, enc: fe})
	l.bytes += fe.Len()
}

// trim drops every frame up to and including ack, recycling its encoder,
// and compacts the log in place so the backing array is reused too.
func (l *frameLog) trim(ack wire.Seq) {
	i := 0
	for ; i < len(l.frames) && !l.frames[i].seq.After(ack); i++ {
		n := l.frames[i].enc.Len()
		l.bytes -= n
		if len(l.free) < freeMax && n <= freeFrameMax {
			l.free = append(l.free, l.frames[i].enc)
		}
	}
	n := copy(l.frames, l.frames[i:])
	clear(l.frames[n:])
	l.frames = l.frames[:n]
}

// peer is the send/receive state for one remote daemon.
type peer struct {
	m      *Mesh
	idx    int
	dialer bool

	out     chan outMsg
	connCh  chan *session
	ackIn   chan wire.Seq // acks the peer sent us: trim the replay log
	ackNote chan struct{} // reader nudges writer to emit an ack
	ackDue  atomic.Uint32 // cumulative seq to ack, published by the reader

	lastRecv atomic.Uint32 // highest in-order seq received from this peer
	dialing  atomic.Bool
	cur      atomic.Pointer[session] // most recently attached session (diagnostics, tests)

	ctr peerCounters
}

// dial connects to the peer with exponential backoff, performs the Hello
// exchange, and attaches the session. Gives up (and aborts the mesh) after
// dialGiveUp of consecutive failures.
func (p *peer) dial() {
	defer p.dialing.Store(false)
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
			hello, herr := p.handshakeDial(conn)
			if herr == nil {
				p.attach(conn, hello.LastRecv)
				return
			}
			conn.Close()
			err = herr
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

// handshakeDial runs the dialer side of the Hello exchange: send ours, read
// theirs.
func (p *peer) handshakeDial(conn gonet.Conn) (wire.Hello, error) {
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	defer conn.SetDeadline(time.Time{})
	ours := wire.Hello{
		Role:     wire.RoleData,
		JobID:    p.m.cfg.JobID,
		Peer:     p.m.cfg.Self,
		LastRecv: wire.Seq(p.lastRecv.Load()),
	}
	if _, err := conn.Write(wire.AppendHello(nil, ours)); err != nil {
		return wire.Hello{}, err
	}
	typ, body, _, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return wire.Hello{}, err
	}
	if typ != wire.FrameHello {
		return wire.Hello{}, fmt.Errorf("net: expected hello, got frame type %d", typ)
	}
	theirs, err := wire.ParseHello(body)
	if err != nil {
		return wire.Hello{}, err
	}
	if theirs.JobID != p.m.cfg.JobID || theirs.Peer != p.idx {
		return wire.Hello{}, fmt.Errorf("net: hello mismatch: job %d peer %d", theirs.JobID, theirs.Peer)
	}
	return theirs, nil
}

// AcceptData attaches an inbound data connection whose Hello has already
// been read (the daemon's listener dispatches on the first frame). It
// replies with this side's Hello and starts the session.
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
	ours := wire.Hello{
		Role:     wire.RoleData,
		JobID:    m.cfg.JobID,
		Peer:     m.cfg.Self,
		LastRecv: wire.Seq(p.lastRecv.Load()),
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	_, err := conn.Write(wire.AppendHello(nil, ours))
	conn.SetDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return err
	}
	p.attach(conn, h.LastRecv)
	return nil
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

// attach hands a fresh session to the writer and starts its reader.
func (p *peer) attach(conn gonet.Conn, peerLast wire.Seq) {
	s := &session{conn: conn, peerLast: peerLast, dead: make(chan struct{})}
	p.cur.Store(s)
	go p.readLoop(s)
	select {
	case p.connCh <- s:
	case <-p.m.done:
		conn.Close()
	}
}

// readLoop demultiplexes one session's inbound frames: data frames are
// admitted in serial order (duplicates from replay overlap dropped, gaps
// fatal) and routed into the bound platform's mailboxes; acks trim the
// peer writer's replay log; Goodbye ends the session cleanly.
func (p *peer) readLoop(s *session) {
	defer s.kill()
	var buf []byte
	var unacked int
	for {
		typ, body, nbuf, err := wire.ReadFrame(s.conn, buf)
		if err != nil {
			// Connection lost. The writer redials (dialer side) or waits for
			// the peer to redial (acceptor side); only handshake exhaustion
			// aborts the job.
			return
		}
		buf = nbuf
		switch typ {
		case wire.FrameMsg:
			d := wire.NewDecoder(body)
			seq := wire.Seq(d.U32())
			gen := d.Uvarint()
			msg := d.Message()
			if d.Err() != nil {
				p.m.abort(fmt.Errorf("net: corrupt frame from peer %d: %w", p.idx, d.Err()))
				return
			}
			last := wire.Seq(p.lastRecv.Load())
			if !seq.After(last) {
				p.ctr.dups.Add(1)
				continue // duplicate from reconnect replay
			}
			if seq != last.Next() {
				p.m.abort(fmt.Errorf("net: sequence gap from peer %d: have %d, got %d", p.idx, last, seq))
				return
			}
			p.lastRecv.Store(uint32(seq))
			p.ctr.framesIn.Add(1)
			p.ctr.bytesIn.Add(uint64(frameHeaderLen + len(body)))
			p.m.route(gen, msg)
			if unacked++; unacked >= ackEvery {
				unacked = 0
				p.ackDue.Store(uint32(seq))
				select {
				case p.ackNote <- struct{}{}:
				default:
				}
			}
		case wire.FrameAck:
			d := wire.NewDecoder(body)
			ack := wire.Seq(d.U32())
			if d.Err() != nil {
				p.m.abort(fmt.Errorf("net: corrupt ack from peer %d: %w", p.idx, d.Err()))
				return
			}
			p.ctr.acksIn.Add(1)
			select {
			case p.ackIn <- ack:
			default:
				// A dropped ack only delays replay-log trimming; the next
				// ack is cumulative and supersedes it.
			}
		case wire.FrameGoodbye:
			s.bye.Store(true)
			return
		default:
			p.m.abort(fmt.Errorf("net: unexpected frame type %d from peer %d", typ, p.idx))
			return
		}
	}
}

// writeLoop owns the peer's outbound side: it encodes queued messages into
// sequenced frames with batched flush, keeps unacked frames for replay,
// emits cumulative acks on the reader's nudge, and survives reconnects by
// replaying everything after the peer's acknowledged position.
func (p *peer) writeLoop() {
	defer p.m.wg.Done()
	var (
		s    *session
		bw   *bufio.Writer
		seq  wire.Seq // last sent
		log  frameLog
		enc  wire.Encoder // control frames (ack, goodbye)
		fail = func(err error) {
			// Drop the session. After the peer's Goodbye that is all: its
			// mesh is closed for good. Otherwise the session was lost, and
			// recovery is a redial (dialer) or a fresh accepted conn
			// (acceptor).
			bye := s.bye.Load()
			s.kill()
			s.conn.Close()
			s, bw = nil, nil
			if bye {
				return
			}
			p.ctr.reconnects.Add(1)
			p.m.logf("net: peer %d session lost: %v", p.idx, err)
			if p.dialer && p.dialing.CompareAndSwap(false, true) {
				go p.dial()
			}
		}
	)
	encode := func(fe *wire.Encoder, om outMsg) (err error) {
		// A registered codec may panic on a payload it cannot represent
		// (e.g. an Entry carrying a non-serializable type) — a protocol
		// bug, surfaced as a job failure rather than a daemon crash.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("net: encoding for peer %d: %v", p.idx, r)
			}
		}()
		return fe.Message(om.msg)
	}
	writeMsg := func(om outMsg) error {
		seq = seq.Next()
		fe := log.take()
		start := fe.BeginFrame(wire.FrameMsg)
		fe.U32(uint32(seq))
		fe.Uvarint(om.gen)
		if err := encode(fe, om); err != nil {
			// Unencodable payload is a protocol bug, not a link failure.
			p.m.abort(err)
			return nil
		}
		fe.FinishFrame(start)
		log.push(seq, fe)
		p.ctr.bytesOut.Add(uint64(fe.Len()))
		p.ctr.replayFrames.Set(int64(len(log.frames)))
		p.ctr.replayBytes.Set(int64(log.bytes))
		if bw == nil {
			return nil // queued in the log; sent by replay when a conn is up
		}
		_, err := bw.Write(fe.Bytes())
		return err
	}
	writeAck := func() error {
		if bw == nil {
			return nil
		}
		enc.Reset()
		start := enc.BeginFrame(wire.FrameAck)
		enc.U32(p.ackDue.Load())
		enc.FinishFrame(start)
		p.ctr.acksOut.Add(1)
		_, err := bw.Write(enc.Bytes())
		return err
	}
	adopt := func(ns *session) {
		if s != nil {
			s.kill()
			s.conn.Close()
		}
		s = ns
		bw = bufio.NewWriterSize(s.conn, 64<<10)
		log.trim(s.peerLast)
		for _, f := range log.frames {
			if _, err := bw.Write(f.enc.Bytes()); err != nil {
				fail(err)
				return
			}
		}
		if len(log.frames) > 0 {
			p.ctr.flushes.Add(1)
		}
		if err := bw.Flush(); err != nil {
			fail(err)
		}
	}
	for {
		if s == nil {
			select {
			case ns := <-p.connCh:
				adopt(ns)
				continue
			case om := <-p.out:
				if err := writeMsg(om); err != nil {
					fail(err)
				}
				continue
			case ack := <-p.ackIn:
				log.trim(ack)
				continue
			case <-p.m.done:
				return
			}
		}
		select {
		case om := <-p.out:
			err := writeMsg(om)
			// Batched flush: drain whatever else is queued (bounded) before
			// paying the syscall.
			for n := 0; err == nil && n < flushBatch; n++ {
				select {
				case om := <-p.out:
					err = writeMsg(om)
					continue
				default:
				}
				break
			}
			if err == nil && bw != nil {
				// Counted before the syscall so a receiver that has the
				// frames never reads a count that lacks their flush.
				p.ctr.flushes.Add(1)
				err = bw.Flush()
			}
			if err != nil {
				fail(err)
			}
		case <-p.ackNote:
			if err := writeAck(); err != nil {
				fail(err)
				continue
			}
			if err := bw.Flush(); err != nil {
				fail(err)
			}
		case ack := <-p.ackIn:
			log.trim(ack)
		case ns := <-p.connCh:
			adopt(ns)
		case <-s.dead:
			fail(fmt.Errorf("net: connection to peer %d lost", p.idx))
		case <-p.m.done:
			// Close follows the local ranks' exit, so their last sends are
			// queued by now — but select may take done ahead of out. Send
			// them before the Goodbye, or the peer's ranks wait forever.
			for len(p.out) > 0 && writeMsg(<-p.out) == nil {
			}
			enc.Reset()
			start := enc.BeginFrame(wire.FrameGoodbye)
			enc.FinishFrame(start)
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
// or mid-ack would lose frames it has not read yet, this side's last ones
// and its Goodbye included.
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
