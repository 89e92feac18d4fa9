// Frame layer: every unit on a daemon connection is a length-prefixed
// frame — a 5-byte header (uint32 little-endian body length, one type byte)
// followed by the body. MaxFrame bounds the body so a corrupt or hostile
// length prefix can never drive an unbounded read or allocation.

package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// FrameType discriminates connection frames.
type FrameType uint8

// Frame types. Hello/Msg/Ack/Goodbye flow on data connections between
// daemons; Hello/Job/JobOK/Start/InvDone/Result/Error flow on the control
// connection between the coordinator and each daemon (their bodies are
// JSON — orchestration is rare and debuggable beats compact there).
const (
	FrameHello   FrameType = 1 // handshake: role, job, peer index, last received seq
	FrameMsg     FrameType = 2 // one platform.Message (seq, generation, message)
	FrameAck     FrameType = 3 // cumulative receive ack, trims the sender's replay log
	FrameGoodbye FrameType = 4 // graceful close: peer is done sending
	FrameJob     FrameType = 5 // coordinator -> daemon: JSON job spec
	FrameJobOK   FrameType = 6 // daemon -> coordinator: job accepted, invocation count
	FrameStart   FrameType = 7 // coordinator -> daemon: start invocation N
	FrameInvDone FrameType = 8 // daemon -> coordinator: invocation N finished
	FrameResult  FrameType = 9 // daemon -> coordinator: JSON aggregate result

	// FrameError carries a daemon-side failure as text; either side treats
	// it as fatal for the job.
	FrameError FrameType = 10
)

// MaxFrame bounds a frame body. The largest legitimate frames are
// Copy-On-Access page batches (COAPrefetch pages, tens of KiB) and queue
// batches (batch bytes plus bulk payloads); 16 MiB leaves orders of
// magnitude of headroom while keeping a corrupt prefix from asking for
// gigabytes.
const MaxFrame = 16 << 20

// frameHeaderLen is the fixed header size: 4-byte length + 1-byte type.
const frameHeaderLen = 5

// AppendFrame appends a complete frame (header + body) to dst.
func AppendFrame(dst []byte, typ FrameType, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, byte(typ))
	return append(dst, body...)
}

// FinishFrame patches the header of a frame whose body was encoded in
// place: the caller reserves a header with BeginFrame, encodes the body
// directly into the encoder, then seals it. This is the zero-copy path the
// transport uses — page words are appended straight into the outgoing
// buffer with no intermediate body slice.
func (e *Encoder) BeginFrame(typ FrameType) int {
	start := len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0, byte(typ))
	return start
}

// FinishFrame seals the frame opened at start, writing its body length.
func (e *Encoder) FinishFrame(start int) {
	body := len(e.buf) - start - frameHeaderLen
	binary.LittleEndian.PutUint32(e.buf[start:], uint32(body))
}

// ReadFrame reads one frame from r, reusing buf (grown as needed, never
// beyond MaxFrame) for the body. It returns the frame type, the body as a
// subslice of the (possibly grown) buffer, and the buffer for the next
// call. A length prefix above MaxFrame is rejected before any allocation.
func ReadFrame(r io.Reader, buf []byte) (FrameType, []byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, nil, buf, fmt.Errorf("wire: frame length %d exceeds limit %d", n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, buf, err
	}
	return FrameType(hdr[4]), body, buf, nil
}

// Connection roles announced in the Hello handshake.
const (
	RoleControl uint8 = 0 // coordinator -> daemon orchestration stream
	RoleData    uint8 = 1 // daemon <-> daemon message stream
)

// helloMagic guards against a stray client connecting to a daemon port.
const helloMagic = 0x58544d44 // "DMTX"

// helloVersion is bumped on incompatible wire changes, registered payload
// codecs included. 2: core's ctrl payload carries a progress word, a flag
// byte and a page list. 3: the Job frame carries the whole job.Spec; a
// version-2 daemon would decode its keys case-insensitively into the old
// five-field spec, drop rate and paradigm, and run DSMTX at rate 0.
const helloVersion = 3

// Hello is the first frame on every connection.
type Hello struct {
	Role  uint8
	JobID uint64
	// Peer is the sender's daemon index (data connections; unused for
	// control).
	Peer int
	// LastRecv is the highest in-order data sequence number the sender has
	// received from this peer — on reconnect the receiver of the Hello
	// replays everything after it.
	LastRecv Seq
}

// AppendHello appends a Hello frame to dst.
func AppendHello(dst []byte, h Hello) []byte {
	var e Encoder
	e.U32(helloMagic)
	e.U8(helloVersion)
	e.U8(h.Role)
	e.U64(h.JobID)
	e.Uvarint(uint64(h.Peer))
	e.U32(uint32(h.LastRecv))
	return AppendFrame(dst, FrameHello, e.Bytes())
}

// ParseHello decodes a Hello frame body.
func ParseHello(body []byte) (Hello, error) {
	d := NewDecoder(body)
	if m := d.U32(); d.Err() == nil && m != helloMagic {
		return Hello{}, fmt.Errorf("wire: bad hello magic %#x", m)
	}
	if v := d.U8(); d.Err() == nil && v != helloVersion {
		return Hello{}, fmt.Errorf("wire: hello version %d, want %d", v, helloVersion)
	}
	var h Hello
	h.Role = d.U8()
	h.JobID = d.U64()
	h.Peer = d.Int()
	h.LastRecv = Seq(d.U32())
	return h, d.Err()
}
