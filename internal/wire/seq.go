// Serial-number arithmetic (RFC 1982 style) for per-connection sequence
// numbers. Every data frame a daemon sends to a peer carries the next
// serial; the receiver admits exactly the successor of its last in-order
// serial, drops duplicates (replay overlap after a reconnect), and treats a
// gap as a transport failure. Comparisons are computed in the two's-
// complement difference, so they stay correct across wraparound — the same
// discipline the vtime cluster's reliable layer uses for retransmit
// ordering, mapped onto a real TCP connection's reconnect-replay.

package wire

// Seq is a 32-bit serial number. The space wraps; After compares
// correctly as long as live serials span less than half the space (the
// replay window is thousands of frames, nowhere near 2^31).
type Seq uint32

// Next returns the successor serial.
func (s Seq) Next() Seq { return s + 1 }

// After reports whether s follows o in serial order.
func (s Seq) After(o Seq) bool { return int32(s-o) > 0 }
