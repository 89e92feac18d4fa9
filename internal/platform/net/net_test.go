package net

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	gonet "net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsmtx/internal/platform"
	"dsmtx/internal/wire"
)

// twoMeshes builds an in-process pair of meshes connected over loopback
// TCP: daemon 0 listens, daemon 1 dials (the i > j dial rule).
func twoMeshes(t *testing.T) (*Mesh, *Mesh) {
	t.Helper()
	return twoMeshesLogf(t, t.Logf)
}

// twoMeshesLogf is twoMeshes with the meshes' diagnostics sent to logf.
func twoMeshesLogf(t *testing.T, logf func(string, ...any)) (*Mesh, *Mesh) {
	t.Helper()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String(), ""}
	m0 := NewMesh(MeshConfig{JobID: 42, Self: 0, Addrs: addrs, Logf: logf})
	m0.ServeListener(ln)
	m1 := NewMesh(MeshConfig{JobID: 42, Self: 1, Addrs: addrs, Logf: logf})
	t.Cleanup(func() {
		m1.Close()
		m0.Close()
	})
	return m0, m1
}

func TestCrossDaemonRoundTrip(t *testing.T) {
	m0, m1 := twoMeshes(t)
	p0, err := m0.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m1.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p0.LocalRank(0) || p0.LocalRank(1) || !p1.LocalRank(1) {
		t.Fatal("rank ownership split is wrong")
	}

	var got uint64
	p1.Spawn("echo", func(pr platform.Proc) {
		ep := p1.Endpoint(1)
		msg := ep.Recv(pr, 0, 7)
		ep.Send(0, 8, msg.Payload.(uint64)+1, 16)
	})
	p0.Spawn("ping", func(pr platform.Proc) {
		ep := p0.Endpoint(0)
		ep.Send(1, 7, uint64(99), 16)
		got = p0.Endpoint(0).Recv(pr, 1, 8).Payload.(uint64)
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p1.Run(0) }()
	if err := p0.Run(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got != 100 {
		t.Fatalf("round trip payload = %d, want 100", got)
	}
}

// TestCrossDaemonOrderAndVolume pushes well past one flush batch and
// checks per-link FIFO plus every built-in payload kind.
func TestCrossDaemonOrderAndVolume(t *testing.T) {
	const n = 1000
	m0, m1 := twoMeshes(t)
	p0, err := m0.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m1.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	var recvErr error
	p1.Spawn("sink", func(pr platform.Proc) {
		ep := p1.Endpoint(1)
		for i := 0; i < n; i++ {
			msg := ep.Recv(pr, 0, 5)
			switch want := i; i % 3 {
			case 0:
				if v, ok := msg.Payload.(uint64); !ok || v != uint64(want) {
					recvErr = fmt.Errorf("msg %d: payload %v", i, msg.Payload)
					return
				}
			case 1:
				if b, ok := msg.Payload.([]byte); !ok || len(b) != 1 || b[0] != byte(want) {
					recvErr = fmt.Errorf("msg %d: payload %v", i, msg.Payload)
					return
				}
			case 2:
				if msg.Payload != nil {
					recvErr = fmt.Errorf("msg %d: payload %v, want nil", i, msg.Payload)
					return
				}
			}
		}
		ep.Send(0, 6, uint64(n), 8)
	})
	p0.Spawn("source", func(pr platform.Proc) {
		ep := p0.Endpoint(0)
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				ep.Send(1, 5, uint64(i), 8)
			case 1:
				ep.Send(1, 5, []byte{byte(i)}, 9)
			case 2:
				ep.Send(1, 5, nil, 8)
			}
		}
		if v := ep.Recv(pr, 1, 6).Payload.(uint64); v != n {
			recvErr = fmt.Errorf("final ack = %d", v)
		}
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p1.Run(0) }()
	if err := p0.Run(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if recvErr != nil {
		t.Fatal(recvErr)
	}
}

// window is how many messages stream's sink takes before it grants the
// source another window.
const window = 64

// stream sends n nil-payload messages from rank 0 (daemon 0) to rank 1
// (daemon 1) on a fresh generation and returns once all were received. The
// sink grants the source one window at a time, so at most two windows are
// ever in flight — the shape of real traffic, where senders wait on
// replies, rather than an unbounded flood.
func stream(t *testing.T, m0, m1 *Mesh, gen uint64, n int) {
	t.Helper()
	p0, err := m0.Platform(gen, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m1.Platform(gen, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1.Spawn("sink", func(pr platform.Proc) {
		ep := p1.Endpoint(1)
		box := ep.Mailbox(0, 5)
		for i := 1; i <= n; i++ {
			box.Recv(pr)
			if i%window == 0 {
				ep.Send(0, 6, nil, 8)
			}
		}
	})
	p0.Spawn("source", func(pr platform.Proc) {
		ep := p0.Endpoint(0)
		grant := ep.Mailbox(1, 6)
		for i := 1; i <= n; i++ {
			ep.Send(1, 5, nil, 8)
			if i%window == 0 && i >= 2*window {
				grant.Recv(pr)
			}
		}
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p0.Run(0) }()
	if err := p1.Run(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestMeshStats checks the transport counters against a known exchange: n
// messages one way (and a grant back per window) are as many frames out on
// one mesh as in on the other, in at least one and at most n flushes.
func TestMeshStats(t *testing.T) {
	const n = 1000
	const grants = n / window
	m0, m1 := twoMeshes(t)
	stream(t, m0, m1, 0, n)
	out, in := m0.Stats(), m1.Stats()
	if out.FramesOut != n || in.FramesIn != n || in.FramesOut != grants || out.FramesIn > grants {
		t.Errorf("frames: sender out/in %d/%d, receiver out/in %d/%d, want %d/<=%d and %d/%d",
			out.FramesOut, out.FramesIn, in.FramesOut, in.FramesIn, n, grants, grants, n)
	}
	if out.BytesOut == 0 || out.BytesOut != in.BytesIn {
		t.Errorf("bytes out %d != bytes in %d", out.BytesOut, in.BytesIn)
	}
	if out.Flushes < 1 || out.Flushes > n {
		t.Errorf("flushes = %d, want 1..%d", out.Flushes, n)
	}
	if out.OutQueueMax < 1 || out.OutQueueMax > outDepth {
		t.Errorf("send queue high-water = %d, want 1..%d", out.OutQueueMax, outDepth)
	}
	var sum MeshStats
	sum.Add(out)
	sum.Add(in)
	if sum.FramesOut != n+grants || sum.OutQueueMax != max(out.OutQueueMax, in.OutQueueMax) {
		t.Errorf("Add: %+v", sum)
	}
}

// TestSendSteadyStateAllocFree pins the writer's send path in the style of
// host's TestInstrumentedRingOpsAllocFree: every frame is encoded into the
// writer's one reused encoder and copied into its buffered writer, so once
// the encoder has grown to a frame's size, sending 4 KiB messages
// allocates nothing.
func TestSendSteadyStateAllocFree(t *testing.T) {
	p := &peer{idx: 0}
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	var enc wire.Encoder
	om := outMsg{gen: 3, msg: platform.Message{From: 1, To: 0, Tag: 3, Payload: make([]byte, 4096), Bytes: 4096}}
	send := func() {
		if err := p.writeMsg(bw, &enc, om); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Fatalf("steady-state send allocates %.1f per 4 KiB message, want 0", allocs)
	}
	typ, body, _, err := wire.ReadFrame(bytes.NewReader(enc.Bytes()), nil)
	if err != nil || typ != wire.FrameMsg {
		t.Fatalf("last frame: type %d, err %v", typ, err)
	}
	d := wire.NewDecoder(body)
	if gen, msg := d.Uvarint(), d.Message(); d.Err() != nil || gen != om.gen || msg.Tag != om.msg.Tag || len(msg.Payload.([]byte)) != 4096 {
		t.Fatalf("last frame decodes to generation %d, %+v (err %v)", gen, msg, d.Err())
	}
	// One call before AllocsPerRun, its warm-up call and its 1000 runs.
	if got, want := p.ctr.bytesOut.Load(), 1002*uint64(enc.Len()); got != want {
		t.Errorf("bytes out = %d, want %d", got, want)
	}
}

// TestCloseSendsQueuedFrames closes a mesh right behind its last sends, as
// a daemon does when its ranks finish first: everything sent must reach the
// peer ahead of the Goodbye. (The writer's select can take Close ahead of
// its queue; it drains the queue first now. That race needs a writer busy
// at the wrong moment — it showed as a hung job under CPU load — so this
// pins the contract, not the interleaving.) The peer is kept silent
// meanwhile: m0 has read all m1 sent. TestCloseWhilePeerSends covers closing on a peer that is mid-send.
func TestCloseSendsQueuedFrames(t *testing.T) {
	const n = window - 1
	m0, m1 := twoMeshes(t)
	stream(t, m0, m1, 0, window) // the session is up and adopted
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := m0.Stats(); st.FramesIn == 1 {
			break // m1's one grant has been read
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm-up never settled: %+v", m0.Stats())
		}
	}
	p0, err := m0.Platform(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m1.Platform(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1.Spawn("sink", func(pr platform.Proc) {
		for i := 0; i < n; i++ {
			p1.Endpoint(1).Recv(pr, 0, 5)
		}
	})
	for i := 0; i < n; i++ {
		p0.Endpoint(0).Send(1, 5, nil, 8)
	}
	m0.Close()
	watchdog := time.AfterFunc(10*time.Second, func() { p1.Abort(fmt.Errorf("queued frames never arrived")) })
	defer watchdog.Stop()
	if err := p1.Run(0); err != nil {
		t.Fatalf("%v (%d of %d frames admitted)", err, m1.Stats().FramesIn-window, n)
	}
}

// TestCloseWhilePeerSends closes a mesh while its peer streams to it: m1
// sends to m0 without pause while m0 sends n frames (four windows) and
// closes. m1 must receive all n. A Close that shut the socket
// right after its Goodbye, with m1's stream unread in it, made the kernel
// answer with a reset that can discard frames m1 has not read yet; Close
// now shuts only the write half and reads on until m1 ends the session.
// The reset needs the stream and the close to overlap, so a run without
// the fix can pass by timing.
func TestCloseWhilePeerSends(t *testing.T) {
	const n = 4 * window
	m0, m1 := twoMeshes(t)
	stream(t, m0, m1, 0, window) // the session is up and adopted
	p0, err := m0.Platform(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m1.Platform(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The stream stops once m0 has closed, or after a bounded count. What
	// m1 sends after m0's Goodbye is dropped, so the stream never blocks.
	var stop atomic.Bool
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		for i := 0; i < 1<<18 && !stop.Load(); i++ {
			p1.Endpoint(1).Send(0, 7, nil, 8)
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); m0.Stats().FramesIn < 4*window; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("m1's stream never reached m0: %+v", m0.Stats())
		}
	}
	p1.Spawn("sink", func(pr platform.Proc) {
		for i := 0; i < n; i++ {
			p1.Endpoint(1).Recv(pr, 0, 5)
		}
	})
	for i := 0; i < n; i++ {
		p0.Endpoint(0).Send(1, 5, nil, 8)
	}
	m0.Close()
	stop.Store(true)
	<-streamed
	watchdog := time.AfterFunc(10*time.Second, func() { p1.Abort(fmt.Errorf("frames sent before Close never arrived")) })
	defer watchdog.Stop()
	if err := p1.Run(0); err != nil {
		t.Fatalf("%v (%d of %d frames admitted)", err, m1.Stats().FramesIn-window, n)
	}
}

// TestGenerationBuffering starts generation 1 on daemon 0 and sends before
// daemon 1 has bound generation 1; the frames must buffer in the mesh and
// drain when the platform binds. A frame of generation 0 that arrives after
// daemon 1 bound generation 1 is a straggler and must be dropped, not
// delivered to the generation-1 rank receiving on its tag.
func TestGenerationBuffering(t *testing.T) {
	m0, m1 := twoMeshes(t)
	// Generation 0 on both sides completes an invocation.
	p0, err := m0.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m1.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1.Spawn("g0", func(pr platform.Proc) { p1.Endpoint(1).Recv(pr, 0, 1) })
	p0.Spawn("g0", func(pr platform.Proc) { p0.Endpoint(0).Send(1, 1, nil, 8) })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p1.Run(0) }()
	if err := p0.Run(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Daemon 0 moves to generation 1 and sends immediately; daemon 1 binds
	// late.
	q0, err := m0.Platform(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	q0.Spawn("g1", func(pr platform.Proc) { q0.Endpoint(0).Send(1, 2, uint64(7), 8) })
	go q0.Run(0)
	time.Sleep(50 * time.Millisecond)

	q1, err := m1.Platform(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Per-link FIFO: the straggler reaches daemon 1 ahead of the
	// generation-1 frame on the same tag.
	p0.Endpoint(0).Send(1, 3, uint64(99), 8)
	q0.Endpoint(0).Send(1, 3, uint64(8), 8)
	var got, next uint64
	q1.Spawn("g1", func(pr platform.Proc) {
		got = q1.Endpoint(1).Recv(pr, 0, 2).Payload.(uint64)
		next = q1.Endpoint(1).Recv(pr, 0, 3).Payload.(uint64)
	})
	if err := q1.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("buffered generation payload = %d, want 7", got)
	}
	if next != 8 {
		t.Fatalf("generation-1 receive after a generation-0 straggler = %d, want 8", next)
	}
}

// TestLostSessionFailsJob severs the live connection, once from the
// dialer's end and once from the acceptor's, while a rank on each side
// waits on a message that is never sent. A session that ends without a
// Goodbye is a lost peer: both meshes must abort and fail their platforms
// at once, naming the lost session, instead of waiting on the link.
func TestLostSessionFailsJob(t *testing.T) {
	for _, end := range []string{"dialer", "acceptor"} {
		t.Run(end, func(t *testing.T) {
			var logMu sync.Mutex
			var logged []string
			m0, m1 := twoMeshesLogf(t, func(format string, args ...any) {
				logMu.Lock()
				logged = append(logged, fmt.Sprintf(format, args...))
				logMu.Unlock()
				t.Logf(format, args...)
			})
			p0, err := m0.Platform(0, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			p1, err := m1.Platform(0, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			p0.Spawn("wait", func(pr platform.Proc) { p0.Endpoint(0).Recv(pr, 1, 9) })
			p1.Spawn("wait", func(pr platform.Proc) { p1.Endpoint(1).Recv(pr, 0, 9) })
			errs := make(chan error, 2)
			go func() { errs <- p0.Run(0) }()
			go func() { errs <- p1.Run(0) }()
			// The dial is asynchronous: wait until both ends hold the session.
			for m0.peers[1].sess.Load() == nil || m1.peers[0].sess.Load() == nil {
				time.Sleep(time.Millisecond)
			}
			if end == "dialer" {
				m1.peers[0].sess.Load().conn.Close()
			} else {
				m0.peers[1].sess.Load().conn.Close()
			}
			timeout := time.After(time.Second)
			for range 2 {
				select {
				case err := <-errs:
					if err == nil || !strings.Contains(err.Error(), "lost") {
						t.Errorf("Run after a lost session = %v, want an error naming it", err)
					}
				case <-timeout:
					p0.Abort(fmt.Errorf("still waiting"))
					p1.Abort(fmt.Errorf("still waiting"))
					t.Fatal("a rank still waits 1 s after its session was lost")
				}
			}
			logMu.Lock()
			lines := strings.Join(logged, "\n")
			logMu.Unlock()
			for _, want := range []string{"net: peer 0 session lost: ", "net: peer 1 session lost: "} {
				if !strings.Contains(lines, want) {
					t.Errorf("no %q diagnostic in:\n%s", want, lines)
				}
			}
		})
	}
}

// TestUnexpectedFrameAborts plays a peer that sends a frame no mesh sends
// on a data connection: the unassigned type 3, a control frame, and a Msg
// frame that does not decode. Each must abort the mesh and fail the rank
// waiting on that peer.
func TestUnexpectedFrameAborts(t *testing.T) {
	for _, row := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"type 3", wire.AppendFrame(nil, 3, []byte{1, 0, 0, 0}), "unexpected frame type 3 from peer 1"},
		{"control frame", wire.AppendFrame(nil, wire.FrameJob, []byte("{}")), "unexpected frame type 5 from peer 1"},
		{"corrupt Msg", wire.AppendFrame(nil, wire.FrameMsg, []byte{0x80}), "corrupt frame from peer 1"},
	} {
		t.Run(row.name, func(t *testing.T) {
			ln, err := gonet.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			m0 := NewMesh(MeshConfig{JobID: 42, Self: 0, Addrs: []string{ln.Addr().String(), ""}, Logf: t.Logf})
			m0.ServeListener(ln)
			defer m0.Close()
			p0, err := m0.Platform(0, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			p0.Spawn("wait", func(pr platform.Proc) { p0.Endpoint(0).Recv(pr, 1, 9) })
			conn, err := gonet.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(wire.AppendHello(nil, wire.Hello{Role: wire.RoleData, JobID: 42, Peer: 1})); err != nil {
				t.Fatal(err)
			}
			if typ, _, _, err := wire.ReadFrame(conn, nil); err != nil || typ != wire.FrameHello {
				t.Fatalf("hello reply: type %d, err %v", typ, err)
			}
			if _, err := conn.Write(row.frame); err != nil {
				t.Fatal(err)
			}
			watchdog := time.AfterFunc(10*time.Second, func() { p0.Abort(fmt.Errorf("no abort")) })
			defer watchdog.Stop()
			if err := p0.Run(0); err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("Run = %v, want %q", err, row.want)
			}
		})
	}
}

// TestSecondSessionRefused: once a peer has its session, another data
// connection claiming to be that peer is closed without a Hello, and the
// live session carries on untouched.
func TestSecondSessionRefused(t *testing.T) {
	m0, m1 := twoMeshes(t)
	stream(t, m0, m1, 0, window) // the session is up
	conn, err := gonet.Dial("tcp", m0.cfg.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.AppendHello(nil, wire.Hello{Role: wire.RoleData, JobID: 42, Peer: 1})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if typ, _, _, err := wire.ReadFrame(conn, nil); err != io.EOF {
		t.Fatalf("second data connection from peer 1: frame %d, err %v; want it closed", typ, err)
	}
	stream(t, m0, m1, 1, window)
	if err := m0.Err(); err != nil {
		t.Fatalf("mesh failed after refusing a second session: %v", err)
	}
}

func TestJobIDMismatchRejected(t *testing.T) {
	old := dialGiveUp
	dialGiveUp = 500 * time.Millisecond
	defer func() { dialGiveUp = old }()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String(), ""}
	m0 := NewMesh(MeshConfig{JobID: 1, Self: 0, Addrs: addrs})
	m0.ServeListener(ln)
	defer m0.Close()
	// A dialer from another job must not attach; its dial loop eventually
	// aborts its own mesh.
	m1 := NewMesh(MeshConfig{JobID: 2, Self: 1, Addrs: addrs})
	defer m1.Close()
	deadline := time.Now().Add(dialGiveUp + 10*time.Second)
	for m1.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("mismatched dialer never aborted")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestNeverDialingPeerFailsJob: daemon 1 never dials daemon 0. The
// accepting side gives a peer the dialer's give-up window, so a rank
// waiting on rank 1 must fail the job naming the peer that never
// connected, within twice the window, and Close must then return at once.
func TestNeverDialingPeerFailsJob(t *testing.T) {
	old := dialGiveUp
	dialGiveUp = 500 * time.Millisecond
	defer func() { dialGiveUp = old }()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m0 := NewMesh(MeshConfig{JobID: 42, Self: 0, Addrs: []string{ln.Addr().String(), ""}, Logf: t.Logf})
	m0.ServeListener(ln)
	p0, err := m0.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p0.Spawn("wait", func(pr platform.Proc) { p0.Endpoint(0).Recv(pr, 1, 9) })
	start := time.Now()
	errc := make(chan error, 1)
	go func() { errc <- p0.Run(0) }()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "net: peer 1 never connected") {
			t.Errorf("Run = %v, want an error naming the peer that never connected", err)
		}
		t.Logf("Run failed after %v", time.Since(start))
	case <-time.After(2 * dialGiveUp):
		p0.Abort(fmt.Errorf("still waiting"))
		<-errc
		t.Errorf("a rank still waits %v after the give-up window", 2*dialGiveUp)
	}
	closed := make(chan struct{})
	go func() {
		m0.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still blocks 1 s after the mesh aborted")
	}
}
