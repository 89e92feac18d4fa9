// Package core implements the DSMTX runtime: software multi-threaded
// transactions (MTX) for clusters, enabling thread-level speculation and
// speculative pipeline parallelism on machines without shared memory.
//
// The design follows §3–§4 of the paper. A parallelized loop runs as a set
// of worker processes (one per pipeline-stage slot), a try-commit unit that
// validates transactions, and a commit unit that holds the authoritative
// memory and commits them — all in private address spaces, connected only by
// batched message queues. Each loop iteration is one MTX; each stage's share
// of the iteration is one subTX, ordered by sequential program order.
// Uncommitted stores are forwarded down the pipeline so later subTXs of the
// same MTX observe them; speculative loads are validated by value against
// the committed state; on misspeculation the commit unit orchestrates the
// four-phase recovery of §4.3.
package core

import "dsmtx/internal/uva"

// entryKind discriminates the records flowing through DSMTX queues.
type entryKind uint8

const (
	entWrite     entryKind = iota // speculative store: addr, value
	entRead                       // speculative load to validate: addr, value seen
	entWriteBlk                   // bulk speculative store: addr, Payload []byte
	entReadBlk                    // bulk speculative read: addr, Bytes length, Val checksum
	entData                       // application-level produce (pipeline dataflow)
	entRoute                      // iteration MTX routed to pool index Val (dynamic scheduling)
	entEndSub                     // end of this worker's subTX of MTX
	entMisspec                    // this MTX misspeculated (worker-detected)
	entTerminate                  // no iteration >= MTX exists on this stream
	entVerdict                    // try-commit unit's validation result for MTX (Val: 1 ok, 0 fail)
)

func (k entryKind) String() string {
	switch k {
	case entWrite:
		return "write"
	case entRead:
		return "read"
	case entWriteBlk:
		return "writeblk"
	case entReadBlk:
		return "readblk"
	case entData:
		return "data"
	case entRoute:
		return "route"
	case entEndSub:
		return "endsub"
	case entMisspec:
		return "misspec"
	case entTerminate:
		return "terminate"
	case entVerdict:
		return "verdict"
	}
	return "invalid"
}

// Entry is one queue record. Payload carries bulk application data for
// entData; Bytes is its modelled wire size.
type Entry struct {
	Kind    entryKind
	MTX     uint64
	Addr    uva.Addr
	Val     uint64
	Payload any
	Bytes   int
}

// pageReq asks the page server for a run of contiguous pages starting at
// Start (Copy-On-Access with read-ahead).
type pageReq struct {
	Start uva.PageID
	Count int
}

// wireSize models the on-the-wire footprint of an entry.
func wireSize(e Entry) int {
	switch e.Kind {
	case entWrite, entRead:
		return 16 // packed addr + value
	case entWriteBlk:
		return 16 + e.Bytes
	case entReadBlk:
		return 24 // addr + length + checksum
	case entData:
		if e.Payload != nil {
			return 12 + e.Bytes
		}
		return 16
	case entRoute, entVerdict:
		return 16
	default: // markers
		return 12
	}
}
