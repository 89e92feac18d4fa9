// Wire hooks for the net backend: batch[T] is unexported (senders and
// receivers only ever see ports), so the codec that ships batches across
// daemon boundaries lives here, parameterized by an item codec the protocol
// layer supplies (internal/core registers Entry's).

package queue

import "dsmtx/internal/wire"

// BatchPrototype returns a *batch[T] for wire.RegisterPayload — the
// registry needs the concrete dynamic type without exporting it.
func BatchPrototype[T any]() any { return (*batch[T])(nil) }

// EncodeBatch appends a batch[T]'s wire encoding: epoch, modelled byte
// size, item count, then each item through the supplied codec.
func EncodeBatch[T any](e *wire.Encoder, payload any, item func(*wire.Encoder, T)) {
	b := payload.(*batch[T])
	e.U64(b.epoch)
	e.Uvarint(uint64(b.bytes))
	e.Uvarint(uint64(len(b.items)))
	for _, it := range b.items {
		item(e, it)
	}
}

// DecodeBatch reads a batch[T] back. Items are sized once, to the smaller
// of the count and the bytes that actually arrived (every item takes at
// least one), so a corrupt count cannot drive allocation; an item read
// past the end latches the decoder error, is not kept, and stops the loop.
func DecodeBatch[T any](d *wire.Decoder, item func(*wire.Decoder) T) any {
	b := &batch[T]{epoch: d.U64(), bytes: d.Int()}
	n := d.Int()
	b.items = make([]T, 0, min(n, d.Remaining()))
	for range n {
		it := item(d)
		if d.Err() != nil {
			break
		}
		b.items = append(b.items, it)
	}
	return b
}
