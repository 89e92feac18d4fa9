package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"dsmtx/internal/platform"
)

// FuzzWireRoundTrip pins the two codec guarantees the net backend depends
// on: (1) a frame the encoder produced decodes back bit-identically, and
// (2) arbitrary byte junk never panics the decoder — every malformed input
// surfaces as an error. Frames are walked with ReadFrame over a reader,
// reusing one buffer, exactly as a daemon's connection reader does: a frame
// whose body is cut short is an error, and a length prefix above MaxFrame is
// rejected before the buffer grows.
func FuzzWireRoundTrip(f *testing.F) {
	// Seed with one well-formed frame of each type so the fuzzer starts from
	// valid structure and mutates toward the interesting edges.
	var e Encoder
	if err := e.Message(platform.Message{From: 1, To: 2, Tag: 101, Payload: []byte{9, 9}, Bytes: 42, Class: platform.ClassQueue}); err != nil {
		f.Fatal(err)
	}
	msg := AppendFrame(nil, FrameMsg, e.Bytes())
	f.Add(msg)
	f.Add(AppendHello(nil, Hello{Role: RoleData, JobID: 7, Peer: 1}))
	// Type 3 is unassigned (it was a version-4 receive ack); a frame of it
	// must walk like any other control frame.
	f.Add(AppendFrame(nil, FrameType(3), binary.LittleEndian.AppendUint32(nil, 123)))
	f.Add(AppendFrame(nil, FrameGoodbye, nil))
	f.Add(AppendFrame(nil, FrameJob, []byte(`{"bench":"crc32"}`)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x02}) // oversized length prefix
	f.Add([]byte{})
	f.Add(msg[:len(msg)-3]) // truncated body
	// A valid frame, then a length prefix one byte above MaxFrame.
	f.Add(binary.LittleEndian.AppendUint32(AppendFrame(nil, FrameGoodbye, nil), MaxFrame+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Defensive pass: walk frames off the input until it errors or runs
		// out. Nothing here may panic, whatever the bytes are.
		r := bytes.NewReader(data)
		var buf []byte
		for r.Len() > 0 {
			rest := data[len(data)-r.Len():]
			typ, body, nbuf, err := ReadFrame(r, buf)
			if len(rest) < frameHeaderLen {
				if err == nil {
					t.Fatalf("frame read from a %d-byte header", len(rest))
				}
			} else if n := binary.LittleEndian.Uint32(rest); n > MaxFrame {
				if err == nil || cap(nbuf) != cap(buf) {
					t.Fatalf("length prefix %d: err %v, buffer %d -> %d bytes", n, err, cap(buf), cap(nbuf))
				}
			} else if uint64(len(rest)) < frameHeaderLen+uint64(n) {
				if err == nil {
					t.Fatalf("frame of %d body bytes read from %d bytes", n, len(rest))
				}
			} else if err != nil || len(body) != int(n) {
				t.Fatalf("complete %d-byte frame: body %d bytes, err %v", n, len(body), err)
			}
			if err != nil {
				break
			}
			buf = nbuf
			switch typ {
			case FrameHello:
				_, _ = ParseHello(body)
			case FrameMsg:
				d := NewDecoder(body)
				m := d.Message()
				if d.Err() != nil {
					break
				}
				// Round-trip pass: a message that decoded cleanly must
				// re-encode, and re-decode to the same value. (Byte equality
				// with the fuzzer's body is not required — varints have
				// redundant encodings — but encode∘decode must be a fixed
				// point.)
				var e1 Encoder
				if err := e1.Message(m); err != nil {
					t.Fatalf("decoded message failed to re-encode: %v (%+v)", err, m)
				}
				d2 := NewDecoder(e1.Bytes())
				m2 := d2.Message()
				if d2.Err() != nil {
					t.Fatalf("re-encoded message failed to decode: %v", d2.Err())
				}
				if !reflect.DeepEqual(m, m2) {
					t.Fatalf("round trip changed message: %+v vs %+v", m, m2)
				}
				var e2 Encoder
				if err := e2.Message(m2); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
					t.Fatalf("canonical encoding not bit-stable: %x vs %x", e1.Bytes(), e2.Bytes())
				}
			default:
				// Control frames carry JSON or fixed words; the frame layer
				// already bounded the body.
				d := NewDecoder(body)
				_ = d.Payload()
			}
		}

		// Raw decoder pass: treat the input as a bare body and exercise every
		// primitive. All reads must stay in bounds.
		d := NewDecoder(data)
		_ = d.Message()
		_ = d.Uvarint()
		_ = d.Blob()
		d.U64s(make([]uint64, 4))
		_, _ = ParseHello(data)
	})
}
