package net

import (
	"fmt"

	"dsmtx/internal/platform"
	"dsmtx/internal/platform/host"
)

// Platform is one invocation's execution platform on the mesh: a fresh
// host platform carrying this daemon's local ranks, with the remote hook
// diverting cross-daemon sends onto the wire. Everything else — mailboxes,
// park accounting, wall-clock tracing, /metrics — is the host
// delivery layer, reused unchanged behind the sockets.
type Platform struct {
	*host.Platform
	mesh     *Mesh
	gen      uint64
	daemonOf func(rank int) int
}

// Platform builds and binds the platform for one invocation (generation
// numbers must be strictly increasing within a job). The active ranks —
// the ones the runtime actually spawns — are split contiguously across the
// mesh's daemons; endpoints beyond active (idle cluster ranks) belong to
// the last daemon but are never spawned anywhere. Only local ranks are
// spawned by the caller (LocalRank); every rank has an endpoint so local
// senders can address remote ones.
func (m *Mesh) Platform(gen uint64, ranks, active int) (*Platform, error) {
	daemons := len(m.cfg.Addrs)
	if active > ranks {
		active = ranks
	}
	if active < daemons {
		return nil, fmt.Errorf("net: %d active ranks across %d daemons: need at least one rank per daemon", active, daemons)
	}
	daemonOf := func(rank int) int {
		if rank >= active {
			return daemons - 1
		}
		return rank * daemons / active
	}
	inner := host.New(ranks, daemonOf)
	inner.SetRemote(
		func(rank int) bool { return daemonOf(rank) == m.cfg.Self },
		func(msg platform.Message) { m.send(gen, daemonOf, msg) },
	)
	if err := m.bind(gen, &binding{gen: gen, plat: inner, daemonOf: daemonOf}); err != nil {
		return nil, err
	}
	return &Platform{Platform: inner, mesh: m, gen: gen, daemonOf: daemonOf}, nil
}

// LocalRank reports whether a rank lives in this process. The runtime
// spawns only local ranks; remote ones are reached through the mesh.
func (p *Platform) LocalRank(rank int) bool {
	return p.daemonOf(rank) == p.mesh.cfg.Self
}

// Run executes the local ranks and surfaces transport failures alongside
// protocol ones.
func (p *Platform) Run(limit platform.Duration) error {
	err := p.Platform.Run(limit)
	if merr := p.mesh.Err(); merr != nil {
		return merr
	}
	return err
}
