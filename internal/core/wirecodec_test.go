package core

import (
	"testing"

	"dsmtx/internal/wire"
)

// TestControlPayloadsRoundTrip pins the codecs of the two small control
// payloads core registers: every field must survive the wire. (The wire
// package's fuzzer cannot see them — core registers them — and a ctrlMsg whose
// progress decodes as 0 parks a daemon-hosted first stage at its window
// forever.)
func TestControlPayloadsRoundTrip(t *testing.T) {
	for _, want := range []any{
		ctrlMsg{epoch: 3, restart: 41, progress: 96, done: true},
		ctrlMsg{epoch: 1<<63 + 5, progress: 1<<40 + 1},
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
		if got != want || d.Remaining() != 0 {
			t.Errorf("round trip: got %+v with %d bytes left, want %+v", got, d.Remaining(), want)
		}
	}
}
