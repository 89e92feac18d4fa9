package core

import (
	"slices"
	"testing"

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
		pageReq{Start: 0x1234_5678_9abc, Count: 8, Grain: 512},
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
