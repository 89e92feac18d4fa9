package wire

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"dsmtx/internal/platform"
)

// testPayload exercises the registry path (kind >= 16) without depending on
// the runtime's registered protocol types.
type testPayload struct {
	A uint64
	B []byte
}

func init() {
	RegisterPayload(200, testPayload{}, "test",
		func(e *Encoder, v any) {
			p := v.(testPayload)
			e.U64(p.A)
			e.Blob(p.B)
		},
		func(d *Decoder) any {
			var p testPayload
			p.A = d.U64()
			b := d.Blob()
			p.B = append([]byte(nil), b...)
			return p
		})
}

func TestPrimitivesRoundTrip(t *testing.T) {
	var e Encoder
	e.U8(7)
	e.U32(0xdeadbeef)
	e.U64(math.MaxUint64)
	e.Uvarint(0)
	e.Uvarint(300)
	e.Uvarint(math.MaxUint64)
	e.Blob([]byte("hello"))
	e.U64s([]uint64{1, 2, 1 << 63})

	d := NewDecoder(e.Bytes())
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := d.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != math.MaxUint64 {
		t.Errorf("U64 = %#x", v)
	}
	for i, want := range []uint64{0, 300, math.MaxUint64} {
		if v := d.Uvarint(); v != want {
			t.Errorf("Uvarint[%d] = %d, want %d", i, v, want)
		}
	}
	if b := d.Blob(); string(b) != "hello" {
		t.Errorf("Blob = %q", b)
	}
	words := make([]uint64, 3)
	d.U64s(words)
	if words[2] != 1<<63 {
		t.Errorf("U64s = %v", words)
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}
}

func TestMessageRoundTrip(t *testing.T) {
	msgs := []platform.Message{
		{From: 0, To: 1, Tag: 5, Payload: nil, Bytes: 8},
		{From: 3, To: 7, Tag: 1 << 30, Payload: uint64(42), Bytes: 16, Class: platform.ClassControl},
		{From: 2, To: 9, Tag: 101, Payload: []byte{1, 2, 3}, Bytes: 19, Class: platform.ClassQueue},
		{From: 1, To: 4, Tag: 3, Payload: testPayload{A: 9, B: []byte("pp")}, Bytes: 4104, Class: platform.ClassPage},
	}
	for _, m := range msgs {
		var e Encoder
		if err := e.Message(m); err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		d := NewDecoder(e.Bytes())
		got := d.Message()
		if d.Err() != nil {
			t.Fatalf("decode %+v: %v", m, d.Err())
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip: got %+v, want %+v", got, m)
		}
		// Bit-identical re-encode.
		var e2 Encoder
		if err := e2.Message(got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.Bytes(), e2.Bytes()) {
			t.Errorf("re-encode differs: %x vs %x", e.Bytes(), e2.Bytes())
		}
	}
}

func TestMessageRejectsUnregisteredPayload(t *testing.T) {
	var e Encoder
	err := e.Message(platform.Message{Payload: struct{ X int }{1}})
	if err == nil {
		t.Fatal("unregistered payload type encoded")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	body := []byte("frame body")
	var buf []byte
	buf = AppendFrame(buf, FrameMsg, body)
	buf = AppendFrame(buf, FrameGoodbye, nil)

	r := bytes.NewReader(buf)
	typ, got, scratch, err := ReadFrame(r, nil)
	if err != nil || typ != FrameMsg || !bytes.Equal(got, body) {
		t.Fatalf("frame 1: typ %d body %q err %v", typ, got, err)
	}
	typ, got, _, err = ReadFrame(r, scratch)
	if err != nil || typ != FrameGoodbye || len(got) != 0 {
		t.Fatalf("frame 2: typ %d body %q err %v", typ, got, err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left over", r.Len())
	}
}

func TestFrameLengthBound(t *testing.T) {
	// A corrupt prefix claiming MaxFrame+1 bytes must be rejected before any
	// allocation.
	hdr := []byte{0xff, 0xff, 0xff, 0xff, byte(FrameMsg)}
	if _, _, _, err := ReadFrame(bytes.NewReader(hdr), nil); err == nil {
		t.Error("ReadFrame accepted an oversized length prefix")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Role: RoleData, JobID: 0xfeedface, Peer: 3}
	buf := AppendHello(nil, h)
	typ, body, _, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil || typ != FrameHello {
		t.Fatalf("typ %d err %v", typ, err)
	}
	got, err := ParseHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("got %+v, want %+v", got, h)
	}
}

func TestHelloRejectsGarbage(t *testing.T) {
	if _, err := ParseHello([]byte("not a hello")); err == nil {
		t.Error("garbage hello accepted")
	}
	if _, err := ParseHello(nil); err == nil {
		t.Error("empty hello accepted")
	}
}

// TestHelloRejectsOldVersion: a version-5 peer (a chunk size in every
// page request) is refused at the handshake, never left to misread frames.
func TestHelloRejectsOldVersion(t *testing.T) {
	var e Encoder
	e.U32(helloMagic)
	e.U8(5)
	e.U8(RoleData)
	e.U64(0)
	e.Uvarint(0)
	e.U32(0)
	if _, err := ParseHello(e.Bytes()); err == nil || !strings.Contains(err.Error(), "hello version 5, want 6") {
		t.Fatalf("version-5 hello: err = %v", err)
	}
}

func TestDecoderTruncationIsSticky(t *testing.T) {
	d := NewDecoder([]byte{1})
	_ = d.U64() // truncated
	if d.Err() == nil {
		t.Fatal("truncated U64 not reported")
	}
	// Further reads return zero values without panicking and keep the first
	// error.
	first := d.Err()
	_ = d.Uvarint()
	_ = d.Blob()
	d.U64s(make([]uint64, 4))
	if d.Err() != first {
		t.Errorf("error replaced: %v", d.Err())
	}
}
