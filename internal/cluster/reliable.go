package cluster

import (
	"fmt"

	"dsmtx/internal/faults"
	"dsmtx/internal/platform"
	"dsmtx/internal/sim"
	"dsmtx/internal/trace"
)

// Reliable-delivery layer, engaged only when the fault plan can lose
// traffic (drop or ack-drop rate > 0). It models what a lossy interconnect
// forces a real runtime's NIC firmware to do:
//
//   - every inter-node message carries a per-(src,dst)-link sequence
//     number piggybacked on the payload (Message.Seq);
//   - the receiver acks each copy it sees and releases messages to the
//     destination rank strictly in sequence order, holding out-of-order
//     arrivals in a reorder buffer — this subsumes the non-overtaking
//     clamp the plain path gets from lastArrival;
//   - the sender keeps a retransmission timer per in-flight message with
//     exponential backoff (faults.RTO); an arriving ack cancels it via
//     sim.Kernel.AtCancel, so a cancelled timer can never stretch the
//     run's virtual elapsed time.
//
// Acks are modelled as NIC-hardware acks: latency-only, no sender-side
// serialization (they are 16-byte wire frames riding the reverse link's
// control channel; their bytes count as control traffic so the per-class
// sums still reproduce the totals). Retransmissions re-serialize through
// the NIC like any send — losing a message costs real wire time.
//
// Intra-node traffic never takes this path: those "links" are memory
// backed and lossless, and a (src,dst) pair is always entirely intra- or
// entirely inter-node, so each pair has exactly one ordering mechanism.

// ackWireBytes is the modelled size of one ack frame.
const ackWireBytes = 16

// relLink is the per-(src,dst) reliable-link state: the sender's next
// sequence number and the receiver's reorder buffer.
type relLink struct {
	nextSeq     uint64
	nextDeliver uint64
	held        map[uint64]platform.Message
}

// relState tracks one message in flight: whether any copy has been acked
// and the cancel hook for the currently armed retransmission timer.
type relState struct {
	acked  bool
	cancel func()
}

// sendReliable assigns the link sequence number and launches attempt 0.
func (m *Machine) sendReliable(msg platform.Message) {
	pair := [2]int{msg.From, msg.To}
	link := m.rel[pair]
	if link == nil {
		link = &relLink{held: make(map[uint64]platform.Message)}
		m.rel[pair] = link
	}
	msg.Seq = link.nextSeq
	link.nextSeq++
	m.relAttempt(link, msg, &relState{}, 0)
}

// relAttempt transmits one copy of msg (attempt n) and arms the
// retransmission timer for attempt n+1.
func (m *Machine) relAttempt(link *relLink, msg platform.Message, st *relState, attempt int) {
	now := m.k.Now()
	bytes := uint64(msg.Bytes)
	m.stats.Messages++
	m.stats.Bytes += bytes
	m.stats.InterNodeBytes += bytes
	switch msg.Class {
	case platform.ClassQueue:
		m.stats.QueueMessages++
		m.stats.QueueBytes += bytes
	case platform.ClassPage:
		m.stats.PageMessages++
		m.stats.PageBytes += bytes
	default:
		m.stats.ControlMessages++
		m.stats.ControlBytes += bytes
	}
	if attempt > 0 {
		m.stats.RetransMessages++
		m.stats.RetransBytes += bytes
		m.tr.Instant(trace.InstRetransmit, msg.From, msg.Seq, int64(msg.Bytes), int64(attempt))
	}
	srcNode := m.cfg.NodeOf(msg.From)
	depart := max(now, m.nicFree[srcNode])
	xmit := sim.Duration(float64(msg.Bytes) / m.cfg.bandwidthOf(srcNode) * 1e9)
	m.nicFree[srcNode] = depart + xmit
	if m.inj.DropData(msg.From, msg.To, msg.Seq, attempt) {
		m.stats.DroppedMessages++
		m.stats.DroppedBytes += bytes
		m.tr.Instant(trace.InstDrop, msg.From, msg.Seq, int64(msg.Bytes), int64(attempt))
	} else {
		lat := m.cfg.InterNodeLatency +
			m.inj.ExtraLatency(msg.From, msg.To, msg.Seq, attempt, now, m.cfg.InterNodeLatency)
		m.k.At(depart+xmit+lat, func() { m.relArrive(link, msg, st) })
	}
	next := attempt + 1
	st.cancel = m.k.AtCancel(depart+xmit+faults.RTO(attempt), func() {
		if st.acked {
			return
		}
		if next >= faults.MaxAttempts {
			// A plan whose drop rate defeats MaxAttempts retries is a
			// configuration error, not a survivable fault: at the shipped
			// defaults the chance is (rate)^12 per message.
			panic(fmt.Sprintf("cluster: message %d->%d seq %d lost after %d attempts",
				msg.From, msg.To, msg.Seq, next))
		}
		m.relAttempt(link, msg, st, next)
	})
}

// relArrive handles one received copy: ack it, then release every
// in-sequence message to the destination endpoint.
func (m *Machine) relArrive(link *relLink, msg platform.Message, st *relState) {
	// Ack every copy, including duplicates — the ack of an earlier copy
	// may itself have been lost, and the retransmitted copy's ack is what
	// finally silences the sender's timer.
	m.relAck(msg, st)
	if msg.Seq < link.nextDeliver {
		return // duplicate of an already-released message
	}
	if _, dup := link.held[msg.Seq]; dup {
		return
	}
	link.held[msg.Seq] = msg
	dst := m.eps[msg.To]
	for {
		next, ok := link.held[link.nextDeliver]
		if !ok {
			return
		}
		delete(link.held, link.nextDeliver)
		link.nextDeliver++
		dst.deliver(next)
	}
}

// relAck models the reverse-direction ack frame: control-class wire
// bytes, pure latency (no NIC serialization), droppable.
func (m *Machine) relAck(msg platform.Message, st *relState) {
	m.stats.Messages++
	m.stats.Bytes += ackWireBytes
	m.stats.InterNodeBytes += ackWireBytes
	m.stats.ControlMessages++
	m.stats.ControlBytes += ackWireBytes
	m.stats.AckMessages++
	m.stats.AckBytes += ackWireBytes
	m.ackSeq++
	if m.inj.DropAck(msg.To, msg.From, m.ackSeq) {
		m.stats.DroppedMessages++
		m.stats.DroppedBytes += ackWireBytes
		m.tr.Instant(trace.InstDrop, msg.To, msg.Seq, ackWireBytes, 0)
		return
	}
	m.k.After(m.cfg.InterNodeLatency, func() {
		st.acked = true
		if st.cancel != nil {
			st.cancel()
		}
	})
}
