// Package wire is the compact binary codec of the net execution backend:
// length-prefixed frames carrying platform messages, Copy-On-Access page
// transfers, and the control/handshake traffic between daemons.
//
// The format is deliberately simple — little-endian fixed words, unsigned
// varints, and a one-byte payload-kind tag — because the runtime above it
// already guarantees everything hard: commit order is predefined (the
// paper's §3), so the wire layer only has to deliver reliably and in
// per-link order, never agree on ordering. Payload encoding is a registry:
// the nil/uint64/[]byte kinds every message path uses are built in, and the
// runtime's own types (ctrlMsg, pageReq, page batches, queue batches)
// register themselves from internal/core so this package stays free of
// protocol dependencies.
//
// Decoding is defensive end to end: every read is bounds-checked against
// the actual bytes present, a corrupt length prefix can never drive an
// allocation larger than the data that arrived, and malformed input
// surfaces as Decoder.Err, never a panic (FuzzWireRoundTrip pins this).
package wire

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"dsmtx/internal/platform"
)

// Encoder appends the wire encoding of values to an internal buffer. The
// zero value is ready to use; Reset recycles the buffer across frames so
// steady-state encoding does not allocate.
type Encoder struct {
	buf []byte
}

// Reset empties the encoder, keeping its buffer capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded bytes; valid until the next Reset.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len reports the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a fixed-width little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a fixed-width little-endian uint64 (full-range values —
// checksums, speculative data words — where a varint would pessimize).
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Uvarint appends an unsigned varint (ranks, tags, counts, addresses).
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Raw appends b verbatim.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Blob appends a length-prefixed byte string.
func (e *Encoder) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.Raw(b)
}

// U64s appends words back to back — the zero-copy page fast path: a 4 KiB
// page encodes as one append of its 512 words with no intermediate buffer.
func (e *Encoder) U64s(words []uint64) {
	n := len(e.buf)
	e.buf = append(e.buf, make([]byte, 8*len(words))...)
	for i, w := range words {
		binary.LittleEndian.PutUint64(e.buf[n+8*i:], w)
	}
}

// Decoder reads the Encoder's format back out of a byte slice. Every read
// is bounds-checked: on truncated or malformed input the decoder records an
// error, returns zero values, and ignores further reads — callers check Err
// once at the end. Blob and U64s return or fill from subslices of the
// input, so a corrupt length prefix can never allocate more than the bytes
// actually present.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps b for decoding. The decoder aliases b; the caller must
// not mutate it until decoding finishes.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err reports the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// fail records the first error.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Failf lets registered payload codecs latch a structural error (an invalid
// discriminator, say) with the same first-error-wins semantics as the
// built-in reads.
func (d *Decoder) Failf(format string, args ...any) { d.fail(format, args...) }

// take returns the next n bytes, or nil after recording an error.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail("truncated: need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a fixed-width little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed-width little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a varint-encoded non-negative int, rejecting values that do not
// fit (a corrupt count must not wrap negative and bypass loop bounds).
func (d *Decoder) Int() int {
	v := d.Uvarint()
	if v > uint64(int(^uint(0)>>1)) {
		d.fail("varint %d overflows int", v)
		return 0
	}
	return int(v)
}

// Blob reads a length-prefixed byte string as a subslice of the input (no
// copy, no allocation — and therefore bounded by what actually arrived).
func (d *Decoder) Blob() []byte {
	n := d.Int()
	return d.take(n)
}

// U64s fills words from the stream (the page fast path's inverse).
func (d *Decoder) U64s(words []uint64) {
	b := d.take(8 * len(words))
	if b == nil {
		return
	}
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// Payload kinds. The first three cover every raw payload the runtime's
// control plane sends; protocol types register kinds >= 16 via
// RegisterPayload (see internal/core's wire codec).
const (
	kindNil   uint8 = 0
	kindU64   uint8 = 1
	kindBytes uint8 = 2
)

// payloadCodec is one registered payload type.
type payloadCodec struct {
	name string
	enc  func(*Encoder, any)
	dec  func(*Decoder) any
}

// Payload registry. Registration happens in package init functions (the
// runtime registers its types from internal/core); lookups after init are
// read-only, so no locking is needed.
var (
	payloadKinds [256]*payloadCodec
	payloadTypes = map[reflect.Type]uint8{}
)

// RegisterPayload installs a codec for the payload type of prototype under
// the given kind byte (>= 16; lower kinds are built in). Call from init
// only — the registry is read-only after program start. enc receives a
// value of the prototype's dynamic type; dec reconstructs one, reporting
// malformed input through the decoder's error state.
func RegisterPayload(kind uint8, prototype any, name string, enc func(*Encoder, any), dec func(*Decoder) any) {
	if kind < 16 {
		panic(fmt.Sprintf("wire: payload kind %d is reserved (register >= 16)", kind))
	}
	if payloadKinds[kind] != nil {
		panic(fmt.Sprintf("wire: payload kind %d registered twice", kind))
	}
	t := reflect.TypeOf(prototype)
	if _, dup := payloadTypes[t]; dup {
		panic(fmt.Sprintf("wire: payload type %v registered twice", t))
	}
	payloadKinds[kind] = &payloadCodec{name: name, enc: enc, dec: dec}
	payloadTypes[t] = kind
}

// Payload appends the kind-tagged encoding of a message payload. Unknown
// types are an error (the net backend can only ship types with codecs), not
// a panic: the transport surfaces it as a platform failure.
func (e *Encoder) Payload(v any) error {
	switch p := v.(type) {
	case nil:
		e.U8(kindNil)
	case uint64:
		e.U8(kindU64)
		e.U64(p)
	case []byte:
		e.U8(kindBytes)
		e.Blob(p)
	default:
		kind, ok := payloadTypes[reflect.TypeOf(v)]
		if !ok {
			return fmt.Errorf("wire: payload type %T has no registered codec", v)
		}
		e.U8(kind)
		payloadKinds[kind].enc(e, v)
	}
	return nil
}

// Payload reads a kind-tagged payload back.
func (d *Decoder) Payload() any {
	switch kind := d.U8(); kind {
	case kindNil:
		return nil
	case kindU64:
		return d.U64()
	case kindBytes:
		b := d.Blob()
		if b == nil {
			return nil
		}
		// Copy out of the frame buffer: payloads outlive the read loop's
		// reusable buffer.
		out := make([]byte, len(b))
		copy(out, b)
		return out
	default:
		c := payloadKinds[kind]
		if c == nil {
			d.fail("unknown payload kind %d", kind)
			return nil
		}
		return c.dec(d)
	}
}

// Message appends the platform.Message fast path: varint routing header,
// class byte, kind-tagged payload.
func (e *Encoder) Message(m platform.Message) error {
	if m.From < 0 || m.To < 0 || m.Tag < 0 || m.Bytes < 0 {
		return fmt.Errorf("wire: negative message field (from %d, to %d, tag %d, bytes %d)", m.From, m.To, m.Tag, m.Bytes)
	}
	e.Uvarint(uint64(m.From))
	e.Uvarint(uint64(m.To))
	e.Uvarint(uint64(m.Tag))
	e.Uvarint(uint64(m.Bytes))
	e.U8(uint8(m.Class))
	return e.Payload(m.Payload)
}

// Message reads a platform.Message back.
func (d *Decoder) Message() platform.Message {
	var m platform.Message
	m.From = d.Int()
	m.To = d.Int()
	m.Tag = d.Int()
	m.Bytes = d.Int()
	m.Class = platform.MsgClass(d.U8())
	m.Payload = d.Payload()
	return m
}
