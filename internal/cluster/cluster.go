// Package cluster models a commodity cluster: nodes with private memory,
// several cores per node, and a message-passing interconnect with realistic
// latency, per-NIC bandwidth serialization, and per-instruction CPU cost.
//
// The model matches the paper's evaluation platform in structure: 32 nodes
// of 4 cores (Intel Xeon 5160 @ 3.00 GHz) connected by InfiniBand. Ranks
// (0..n-1) map onto (node, core) pairs; messages between ranks on the same
// node take the cheap intra-node path, messages between nodes serialize
// through the sender's NIC and pay wire latency.
//
// A Machine is the vtime platform (platform.Platform): the runtime spawns
// its processes on the machine's kernel and sends through its endpoints, so
// a run is deterministic in virtual time.
package cluster

import (
	"fmt"

	"dsmtx/internal/platform"
	"dsmtx/internal/sim"
)

// Config describes the machine. The zero value is unusable; use
// DefaultConfig and override fields as needed.
type Config struct {
	Nodes        int // number of nodes
	CoresPerNode int // cores (ranks) per node

	InterNodeLatency platform.Duration // one-way wire latency between nodes
	IntraNodeLatency platform.Duration // one-way latency between cores of a node

	LinkBandwidth      float64 // bytes per virtual second through one NIC
	IntraNodeBandwidth float64 // bytes per virtual second between local cores

	// HeadNode, if >= 0, designates a node with HeadBandwidth of outbound
	// bandwidth instead of LinkBandwidth. The DSMTX runtime marks the
	// commit unit's node: it both serves Copy-On-Access pages (the role a
	// storage/NFS server plays in the paper's cluster) and runs the
	// sequential program portions, so it gets the fat pipe a head node
	// would have.
	HeadNode      int
	HeadBandwidth float64

	ClockGHz float64 // core clock; instruction costs are charged at this rate
}

// DefaultConfig mirrors the paper's platform: 32 × 4 cores at 3.0 GHz on
// InfiniBand (≈1.9 µs one-way latency, ≈1.2 GB/s effective per NIC).
func DefaultConfig() Config {
	return Config{
		Nodes:              32,
		CoresPerNode:       4,
		InterNodeLatency:   1900 * platform.Nanosecond,
		IntraNodeLatency:   90 * platform.Nanosecond,
		LinkBandwidth:      2.0e9,
		IntraNodeBandwidth: 24e9,
		HeadNode:           -1,
		HeadBandwidth:      6.0e9,
		ClockGHz:           3.0,
	}
}

// ManycoreConfig models the emerging coherence-free manycore the paper's
// §7 points at (Intel's 48-core SCC-style part [14]): one chip, 48 cores
// with private memory domains, explicit message passing — "the same
// programming challenges as clusters, with the main difference being lower
// communication latency".
func ManycoreConfig() Config {
	return Config{
		Nodes:              48,
		CoresPerNode:       1,
		InterNodeLatency:   200 * platform.Nanosecond, // on-die mesh hop
		IntraNodeLatency:   50 * platform.Nanosecond,
		LinkBandwidth:      5e9, // on-die links
		IntraNodeBandwidth: 24e9,
		HeadNode:           -1,
		HeadBandwidth:      10e9,
		ClockGHz:           1.0, // SCC-class simple cores
	}
}

// bandwidthOf reports a node's outbound NIC bandwidth.
func (c Config) bandwidthOf(node int) float64 {
	if node == c.HeadNode && c.HeadBandwidth > 0 {
		return c.HeadBandwidth
	}
	return c.LinkBandwidth
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("cluster: Nodes = %d, need >= 1", c.Nodes)
	case c.CoresPerNode < 1:
		return fmt.Errorf("cluster: CoresPerNode = %d, need >= 1", c.CoresPerNode)
	case c.LinkBandwidth <= 0 || c.IntraNodeBandwidth <= 0:
		return fmt.Errorf("cluster: bandwidths must be positive")
	case c.InterNodeLatency < 0 || c.IntraNodeLatency < 0:
		return fmt.Errorf("cluster: latencies must be non-negative (inter %v, intra %v)",
			c.InterNodeLatency, c.IntraNodeLatency)
	case c.HeadNode >= c.Nodes:
		return fmt.Errorf("cluster: HeadNode = %d out of range [0,%d) (or negative for none)",
			c.HeadNode, c.Nodes)
	case c.HeadNode >= 0 && c.HeadBandwidth <= 0:
		return fmt.Errorf("cluster: HeadBandwidth = %g must be positive when HeadNode is set",
			c.HeadBandwidth)
	case c.ClockGHz <= 0:
		return fmt.Errorf("cluster: ClockGHz must be positive")
	}
	return nil
}

// Ranks reports the total number of ranks (cores) in the machine.
func (c Config) Ranks() int { return c.Nodes * c.CoresPerNode }

// NodeOf reports the node hosting a rank. Ranks are laid out round-robin
// across nodes (rank r lives on node r % Nodes) so that consecutive ranks —
// which DSMTX places adjacent pipeline stages on — land on different nodes.
// This is the pessimistic placement the paper's latency-tolerance argument
// is about.
func (c Config) NodeOf(rank int) int { return rank % c.Nodes }

// InstrTime converts an instruction count to virtual time at the
// configured clock rate.
func (c Config) InstrTime(instructions int64) platform.Duration {
	if instructions <= 0 {
		return 0
	}
	return platform.Duration(float64(instructions) / c.ClockGHz)
}

// Machine is a simulated cluster instance bound to a sim.Kernel, and the
// virtual-time execution platform over it.
type Machine struct {
	k       *sim.Kernel
	cfg     Config
	nicFree []platform.Time // per-node time at which the NIC is next idle
	// lastArrival enforces MPI's non-overtaking guarantee: two messages
	// between the same (src, dst) pair are never delivered out of order,
	// even when a small message follows a large one on a faster path.
	lastArrival map[[2]int]platform.Time
	eps         []*Endpoint
	stats       platform.TrafficStats

	// extra, when set, adds latency to every message before the
	// non-overtaking clamp (SetExtraLatency).
	extra func(from, to int, now platform.Time) platform.Duration
}

// SetExtraLatency installs a schedule perturbation: every message, intra-
// and inter-node alike, arrives extra(from, to, sendTime) later than the
// model says, still never ahead of an earlier message between the same
// pair. It moves arrivals only — nothing is dropped or reordered per pair —
// so a perturbed run computes what a clean one does on another
// interleaving. Must be called before any traffic flows; nil removes it.
func (m *Machine) SetExtraLatency(extra func(from, to int, now platform.Time) platform.Duration) {
	m.extra = extra
}

// New builds a machine on the given kernel. It panics on invalid
// configuration (construction-time misuse, per Effective Go).
func New(k *sim.Kernel, cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		k:           k,
		cfg:         cfg,
		nicFree:     make([]platform.Time, cfg.Nodes),
		lastArrival: make(map[[2]int]platform.Time),
		eps:         make([]*Endpoint, cfg.Ranks()),
	}
	for r := range m.eps {
		m.eps[r] = &Endpoint{m: m, rank: r, boxes: make(map[int]*tagBox)}
	}
	return m
}

// Endpoint returns the communication endpoint for a rank.
func (m *Machine) Endpoint(rank int) platform.Endpoint { return m.endpoint(rank) }

func (m *Machine) endpoint(rank int) *Endpoint {
	if rank < 0 || rank >= len(m.eps) {
		panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", rank, len(m.eps)))
	}
	return m.eps[rank]
}

// InstrTime charges instructions at the machine's modelled clock rate.
func (m *Machine) InstrTime(instructions int64) platform.Duration {
	return m.cfg.InstrTime(instructions)
}

// Spawn creates a simulation process on the machine's kernel; it starts
// when Run drives the calendar.
func (m *Machine) Spawn(name string, fn func(p platform.Proc)) {
	m.k.Spawn(name, func(p *sim.Proc) { fn(p) })
}

// Run drives the event calendar to completion (or to the horizon).
func (m *Machine) Run(horizon platform.Duration) error { return m.k.Run(horizon) }

// Now reports the current virtual time.
func (m *Machine) Now() platform.Time { return m.k.Now() }

// Events reports how many calendar events have fired.
func (m *Machine) Events() uint64 { return m.k.Events() }

// Traffic returns a snapshot of accumulated traffic.
func (m *Machine) Traffic() platform.TrafficStats { return m.stats }

// transmit models the wire: serialization through the sender's NIC for
// inter-node messages, a fast path for intra-node ones. It returns the
// arrival time at the destination.
func (m *Machine) transmit(msg platform.Message) platform.Time {
	now := m.k.Now()
	m.stats.Messages++
	m.stats.Bytes += uint64(msg.Bytes)
	switch msg.Class {
	case platform.ClassQueue:
		m.stats.QueueMessages++
		m.stats.QueueBytes += uint64(msg.Bytes)
	case platform.ClassPage:
		m.stats.PageMessages++
		m.stats.PageBytes += uint64(msg.Bytes)
	default:
		m.stats.ControlMessages++
		m.stats.ControlBytes += uint64(msg.Bytes)
	}
	srcNode, dstNode := m.cfg.NodeOf(msg.From), m.cfg.NodeOf(msg.To)
	var arrival platform.Time
	if srcNode == dstNode {
		m.stats.IntraNodeBytes += uint64(msg.Bytes)
		xmit := platform.Duration(float64(msg.Bytes) / m.cfg.IntraNodeBandwidth * 1e9)
		arrival = now + m.cfg.IntraNodeLatency + xmit
	} else {
		m.stats.InterNodeBytes += uint64(msg.Bytes)
		depart := max(now, m.nicFree[srcNode])
		xmit := platform.Duration(float64(msg.Bytes) / m.cfg.bandwidthOf(srcNode) * 1e9)
		m.nicFree[srcNode] = depart + xmit
		arrival = depart + xmit + m.cfg.InterNodeLatency
	}
	if m.extra != nil {
		arrival += m.extra(msg.From, msg.To, now)
	}
	pair := [2]int{msg.From, msg.To}
	if last := m.lastArrival[pair]; arrival < last {
		arrival = last
	}
	m.lastArrival[pair] = arrival
	return arrival
}

// Endpoint is one rank's attachment to the interconnect: one mailbox per
// tag, created by whichever comes first, its receiver's registration or its
// first delivery.
type Endpoint struct {
	m     *Machine
	rank  int
	boxes map[int]*tagBox
}

// tagBox is a tag's one mailbox and the exact sender its registrations
// named (AnySource until one names a rank).
type tagBox struct {
	ch   *sim.Chan[platform.Message]
	from int
}

// Rank reports this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Mailbox returns (creating if needed) the tag's mailbox. from does not
// route: it names the tag's one sender, or is AnySource. It panics if an
// earlier registration on the tag named a different sender.
func (e *Endpoint) Mailbox(from, tag int) platform.Mailbox {
	return e.box(from, tag)
}

// box is Mailbox with the concrete channel type.
func (e *Endpoint) box(from, tag int) *sim.Chan[platform.Message] {
	b := e.boxOf(tag)
	if from != platform.AnySource {
		if b.from != platform.AnySource && b.from != from {
			panic(fmt.Sprintf("cluster: rank %d tag %d registered for sender %d, then for sender %d",
				e.rank, tag, b.from, from))
		}
		b.from = from
	}
	return b.ch
}

// boxOf returns (creating if needed) the tag's mailbox.
func (e *Endpoint) boxOf(tag int) *tagBox {
	b, ok := e.boxes[tag]
	if !ok {
		b = &tagBox{ch: sim.NewChan[platform.Message](fmt.Sprintf("r%d#%d", e.rank, tag)), from: platform.AnySource}
		e.boxes[tag] = b
	}
	return b
}

// deliver puts an arrived message in its tag's mailbox.
func (e *Endpoint) deliver(msg platform.Message) { e.boxOf(msg.Tag).ch.Push(msg) }

// Send injects a message into the network; it does not charge CPU time (the
// mpi package layers per-call instruction costs on top). Delivery happens at
// the modelled arrival time.
func (e *Endpoint) Send(to, tag int, payload any, bytes int) {
	e.SendClass(to, tag, payload, bytes, platform.ClassControl)
}

// SendClass is Send with an explicit traffic class for bandwidth
// attribution; the class changes accounting only, never timing.
func (e *Endpoint) SendClass(to, tag int, payload any, bytes int, class platform.MsgClass) {
	if bytes < 0 {
		panic("cluster: negative message size")
	}
	msg := platform.Message{From: e.rank, To: to, Tag: tag, Payload: payload, Bytes: bytes, Class: class}
	dst := e.m.endpoint(to)
	arrival := e.m.transmit(msg)
	e.m.k.At(arrival, func() { dst.deliver(msg) })
}

// Recv blocks p until a message with the given tag arrives, and returns it;
// from is checked as Mailbox checks it.
func (e *Endpoint) Recv(p platform.Proc, from, tag int) platform.Message {
	msg, ok := e.box(from, tag).Recv(p)
	if !ok {
		panic("cluster: mailbox closed")
	}
	return msg
}

// Idle is a poll loop's wait step: in virtual time, exactly the modelled
// back-off d and nothing else.
func (e *Endpoint) Idle(p platform.Proc, d platform.Duration) { p.Advance(d) }
