package core

import (
	"dsmtx/internal/mpi"
	"dsmtx/internal/platform"
)

// pollWait is the wait step every poll loop takes after a pass that found
// nothing: idle on the rank's endpoint for the current back-off — exactly
// that much virtual time under vtime; on the live backends spin-then-park
// until the next delivery to this rank, so a loop may only wait on
// conditions that arrive as messages to its own rank — then charge what the
// wait took on the rank's own clock (under vtime, the back-off) to the
// caller's stall bucket and double the back-off up to pollMax. Loops start
// *backoff at pollMin.
func (s *System) pollWait(comm *mpi.Comm, backoff *platform.Duration, bucket *platform.Duration) {
	d := *backoff
	start := comm.Proc().Now()
	comm.Idle(d)
	*bucket += comm.Proc().Now() - start
	if d < pollMax {
		*backoff = 2 * d
	}
}
