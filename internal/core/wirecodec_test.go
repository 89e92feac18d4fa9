package core

import (
	"reflect"
	"slices"
	"testing"

	"dsmtx/internal/mem"
	"dsmtx/internal/uva"
	"dsmtx/internal/wire"
)

// TestControlPayloadsRoundTrip pins the codecs of the two small control
// payloads core registers: every field must survive the wire. (The wire
// package's fuzzer cannot see them — core registers them — and a ctrlMsg whose
// progress decodes as 0 parks a daemon-hosted first stage at its window
// forever; one whose stale list is lost leaves a daemon-hosted rank reading
// pages the commit unit has since written.)
func TestControlPayloadsRoundTrip(t *testing.T) {
	for _, want := range []any{
		ctrlMsg{epoch: 3, restart: 41, progress: 96, done: true},
		ctrlMsg{epoch: 1<<63 + 5, progress: 1<<40 + 1},
		ctrlMsg{epoch: 7, rearm: true},
		ctrlMsg{epoch: 8, rearm: true, stale: []uva.PageID{0, 0x1234_5678_9abc, 1<<52 - 1, 9}},
		pageReq{Start: 0x1234_5678_9abc, Count: 8},
	} {
		var e wire.Encoder
		if err := e.Payload(want); err != nil {
			t.Fatalf("%+v: encode: %v", want, err)
		}
		d := wire.NewDecoder(e.Bytes())
		got := d.Payload()
		if err := d.Err(); err != nil {
			t.Fatalf("%+v: decode: %v", want, err)
		}
		same := false
		switch w := want.(type) {
		case ctrlMsg:
			g := got.(ctrlMsg)
			same = g.epoch == w.epoch && g.restart == w.restart && g.progress == w.progress &&
				g.done == w.done && g.rearm == w.rearm && slices.Equal(g.stale, w.stale)
		case pageReq:
			same = got.(pageReq) == w
		}
		if !same || d.Remaining() != 0 {
			t.Errorf("round trip: got %+v with %d bytes left, want %+v", got, d.Remaining(), want)
		}
	}
}

// TestControlStaleListTruncated: a rearm list cut short, or one whose count
// claims far more pages than arrived, fails to decode — and sizes its buffer
// from the bytes that arrived, not from the count.
func TestControlStaleListTruncated(t *testing.T) {
	var e wire.Encoder
	if err := e.Payload(ctrlMsg{epoch: 2, rearm: true, stale: []uva.PageID{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	full := e.Bytes()
	for cut := 1; cut <= 8*3; cut++ {
		d := wire.NewDecoder(full[:len(full)-cut])
		d.Payload()
		if d.Err() == nil {
			t.Errorf("list cut by %d bytes decoded without error", cut)
		}
	}

	// The same header claiming 2^40 pages, followed by one page's bytes.
	e.Reset()
	if err := e.Payload(ctrlMsg{epoch: 2, rearm: true}); err != nil {
		t.Fatal(err)
	}
	lie := append([]byte(nil), e.Bytes()[:e.Len()-1]...)  // drop the zero count
	lie = append(lie, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // uvarint 2^40
	lie = append(lie, make([]byte, 8)...)
	d := wire.NewDecoder(lie)
	got := d.Payload()
	if d.Err() == nil {
		t.Fatal("a count of 2^40 with one page of data decoded without error")
	}
	if c := cap(got.(ctrlMsg).stale); c > 1 {
		t.Errorf("decoder sized the list for %d pages from one page of data", c)
	}
}

// FuzzCorePayloads walks junk through the payload decoders core registers —
// ctrl, page-request, page-reply and queue-batch bodies, which daemons
// decode off the network and which the wire package's fuzzer cannot
// register. No input may panic a decoder; a decoded page or stale list never
// holds more elements than the input has bytes for; and a value that decoded
// cleanly re-encodes and decodes back to itself.
func FuzzCorePayloads(f *testing.F) {
	var pg mem.Page
	pg.Words[0], pg.Words[uva.PageWords-1] = 7, 9
	for _, v := range []any{
		ctrlMsg{epoch: 8, restart: 3, progress: 96, done: true, rearm: true, stale: []uva.PageID{0, 9}},
		pageReq{Start: 0x1234_5678_9abc, Count: 8},
		[]*mem.Page{&pg},
	} {
		var e wire.Encoder
		if err := e.Payload(v); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), e.Bytes()...))
	}
	// A queue batch's type is the queue package's own, so its seed is
	// spelled out: kind, epoch, modelled bytes, count, then two entries
	// (kind, MTX, address, value, bytes, payload flag [, blob]).
	var e wire.Encoder
	e.U8(wireKindBatch)
	e.U64(2)
	e.Uvarint(96)
	e.Uvarint(2)
	e.U8(uint8(entWrite))
	e.Uvarint(5)
	e.U64(0x1000)
	e.U64(42)
	e.Uvarint(8)
	e.U8(0)
	e.U8(uint8(entWriteBlk))
	e.Uvarint(5)
	e.U64(0x2000)
	e.U64(0)
	e.Uvarint(3)
	e.U8(1)
	e.Blob([]byte{1, 2, 3})
	f.Add(e.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDecoder(data)
		v := d.Payload()
		switch m := v.(type) {
		case ctrlMsg:
			if len(m.stale) > len(data)/8 || cap(m.stale) > len(data)/8 {
				t.Fatalf("stale list of %d (cap %d) from %d bytes", len(m.stale), cap(m.stale), len(data))
			}
		case []*mem.Page:
			if most := len(data) / (8 * uva.PageWords); len(m) > most || cap(m) > most {
				t.Fatalf("%d pages (cap %d) from %d bytes", len(m), cap(m), len(data))
			}
		}
		if d.Err() != nil {
			return
		}
		var e wire.Encoder
		if err := e.Payload(v); err != nil {
			t.Fatalf("decoded %T failed to re-encode: %v", v, err)
		}
		d2 := wire.NewDecoder(e.Bytes())
		if v2 := d2.Payload(); d2.Err() != nil || d2.Remaining() != 0 || !reflect.DeepEqual(v, v2) {
			t.Fatalf("round trip: %+v became %+v (err %v, %d bytes left)", v, v2, d2.Err(), d2.Remaining())
		}
	})
}
