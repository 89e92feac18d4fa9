// Package vtime adapts the deterministic virtual-time stack — the sim
// discrete-event kernel plus the cluster machine model — to the platform
// interfaces. It is a zero-cost veneer: every method forwards to the same
// kernel/machine call the runtime made before the platform layer existed,
// and sim.Time aliases platform.Time, so vtime executions are bit-identical
// to the pre-platform simulator.
package vtime

import (
	"dsmtx/internal/cluster"
	"dsmtx/internal/platform"
	"dsmtx/internal/sim"
)

// Platform is a virtual-time execution world over one kernel and one
// simulated cluster machine.
type Platform struct {
	k *sim.Kernel
	m *cluster.Machine
	// cfg caches the machine's immutable configuration: InstrTime sits on
	// every mpi charge path, and going through Machine.Config() would copy
	// the whole struct per call.
	cfg cluster.Config
}

// New wraps an existing kernel and machine. Callers that need the vtime-only
// subsystems (fault injection, tracing, heartbeat timers) keep their own
// references to k and m; the runtime protocol sees only the platform.
func New(k *sim.Kernel, m *cluster.Machine) *Platform {
	return &Platform{k: k, m: m, cfg: m.Config()}
}

// Name identifies the backend.
func (v *Platform) Name() string { return "vtime" }

// Ranks reports the machine's total rank count.
func (v *Platform) Ranks() int { return v.m.Config().Ranks() }

// NodeOf reports the node hosting a rank.
func (v *Platform) NodeOf(rank int) int { return v.m.Config().NodeOf(rank) }

// Endpoint returns the rank's attachment to the simulated interconnect.
func (v *Platform) Endpoint(rank int) platform.Endpoint { return v.m.Endpoint(rank) }

// InstrTime charges instructions at the machine's modelled clock rate.
func (v *Platform) InstrTime(instructions int64) platform.Duration {
	return v.cfg.InstrTime(instructions)
}

// Spawn creates a simulation process; it starts when Run drives the
// calendar.
func (v *Platform) Spawn(name string, fn func(p platform.Proc)) {
	v.k.Spawn(name, func(p *sim.Proc) { fn(p) })
}

// Run drives the event calendar to completion (or to the horizon).
func (v *Platform) Run(horizon platform.Duration) error { return v.k.Run(horizon) }

// Now reports the current virtual time.
func (v *Platform) Now() platform.Time { return v.k.Now() }

// Events reports how many calendar events have fired.
func (v *Platform) Events() uint64 { return v.k.Events() }

// Traffic returns the machine's accumulated wire traffic.
func (v *Platform) Traffic() platform.TrafficStats { return v.m.Stats() }

// Concurrent is false: simulation processes run in strict cooperative
// alternation, so runtime state needs no synchronization.
func (v *Platform) Concurrent() bool { return false }
