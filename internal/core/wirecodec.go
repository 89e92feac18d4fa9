// Wire codecs for the runtime's message payloads. The net backend can only
// ship payload types with registered codecs; this file registers every type
// the protocol sends between ranks — control broadcasts, page requests and
// replies, and queue batches of Entry records. Registration runs at init so
// any binary that links core (daemons, tests, tools) can serve either side
// of a connection.

package core

import (
	"dsmtx/internal/mem"
	"dsmtx/internal/queue"
	"dsmtx/internal/uva"
	"dsmtx/internal/wire"
)

// Payload kind bytes. 0-15 are wire built-ins (nil, uint64, []byte).
const (
	wireKindCtrl    = 0x10
	wireKindPageReq = 0x11
	wireKindPages   = 0x12
	wireKindBatch   = 0x13
)

// ctrlMsg flag bits.
const (
	ctrlDone  = 1 << 0
	ctrlRearm = 1 << 1
)

func init() {
	// Control broadcasts: three words, a flag byte, then the rearm list as a
	// count and one word per page. Decode sizes the list from the bytes that
	// arrived, as the page codec does, so a corrupt count fails on the
	// truncated list instead of allocating for it.
	wire.RegisterPayload(wireKindCtrl, ctrlMsg{}, "ctrl",
		func(e *wire.Encoder, v any) {
			m := v.(ctrlMsg)
			e.U64(m.epoch)
			e.U64(m.restart)
			e.U64(m.progress)
			flags := uint8(0)
			if m.done {
				flags |= ctrlDone
			}
			if m.rearm {
				flags |= ctrlRearm
			}
			e.U8(flags)
			e.Uvarint(uint64(len(m.stale)))
			for _, id := range m.stale {
				e.U64(uint64(id))
			}
		},
		func(d *wire.Decoder) any {
			var m ctrlMsg
			m.epoch = d.U64()
			m.restart = d.U64()
			m.progress = d.U64()
			flags := d.U8()
			if flags&^(ctrlDone|ctrlRearm) != 0 {
				d.Failf("bad ctrl flags %#x", flags)
			}
			m.done = flags&ctrlDone != 0
			m.rearm = flags&ctrlRearm != 0
			if n := d.Int(); n > 0 {
				m.stale = make([]uva.PageID, 0, min(n, d.Remaining()/8))
				for range n {
					id := d.U64()
					if d.Err() != nil {
						break
					}
					m.stale = append(m.stale, uva.PageID(id))
				}
			}
			return m
		})

	wire.RegisterPayload(wireKindPageReq, pageReq{}, "pagereq",
		func(e *wire.Encoder, v any) {
			r := v.(pageReq)
			e.U64(uint64(r.Start))
			e.Uvarint(uint64(r.Count))
		},
		func(d *wire.Decoder) any {
			var r pageReq
			r.Start = uva.PageID(d.U64())
			r.Count = d.Int()
			return r
		})

	// Page replies: count, then each page's words raw — the zero-copy fast
	// path (one contiguous append per page, no per-word framing). Decode
	// sizes the list from the bytes that arrived and keeps only whole
	// pages, so a corrupt count cannot outrun the data.
	wire.RegisterPayload(wireKindPages, []*mem.Page(nil), "pages",
		func(e *wire.Encoder, v any) {
			pages := v.([]*mem.Page)
			e.Uvarint(uint64(len(pages)))
			for _, pg := range pages {
				e.U64s(pg.Words[:])
			}
		},
		func(d *wire.Decoder) any {
			n := d.Int()
			pages := make([]*mem.Page, 0, min(n, d.Remaining()/(8*uva.PageWords)))
			for range n {
				pg := &mem.Page{}
				if d.U64s(pg.Words[:]); d.Err() != nil {
					break
				}
				pages = append(pages, pg)
			}
			return pages
		})

	// Queue batches of Entry. An Entry payload is either nil or []byte
	// (entData bulk produce); any other dynamic type cannot cross a daemon
	// boundary and fails the encode, which the transport surfaces as a
	// platform failure.
	wire.RegisterPayload(wireKindBatch, queue.BatchPrototype[Entry](), "batch",
		func(e *wire.Encoder, v any) {
			queue.EncodeBatch(e, v, func(e *wire.Encoder, it Entry) {
				e.U8(uint8(it.Kind))
				e.Uvarint(it.MTX)
				e.U64(uint64(it.Addr))
				e.U64(it.Val)
				e.Uvarint(uint64(it.Bytes))
				switch p := it.Payload.(type) {
				case nil:
					e.U8(0)
				case []byte:
					e.U8(1)
					e.Blob(p)
				default:
					panic(errUnwirablePayload{})
				}
			})
		},
		func(d *wire.Decoder) any {
			return queue.DecodeBatch(d, func(d *wire.Decoder) Entry {
				var it Entry
				it.Kind = entryKind(d.U8())
				it.MTX = d.Uvarint()
				it.Addr = uva.Addr(d.U64())
				it.Val = d.U64()
				it.Bytes = d.Int()
				switch flag := d.U8(); flag {
				case 0:
				case 1:
					b := d.Blob()
					out := make([]byte, len(b))
					copy(out, b)
					it.Payload = out
				default:
					d.Failf("bad entry payload flag %d", flag)
				}
				return it
			})
		})
}

// errUnwirablePayload marks an Entry payload type the codec cannot ship.
type errUnwirablePayload struct{}

func (errUnwirablePayload) Error() string {
	return "core: Entry.Payload type has no wire encoding (net backend programs must produce []byte)"
}
