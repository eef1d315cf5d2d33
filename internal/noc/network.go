package noc

import (
	"fmt"
	"math"

	"inpg/internal/fault"
	"inpg/internal/sim"
)

// Config holds the network parameters (Table 1 defaults are set by
// DefaultConfig).
type Config struct {
	Mesh       Mesh
	VCsPerPort int // must be a multiple of NumVNets
	VCDepth    int // flits per VC buffer
	// PriorityArb enables OCOR priority-based VC/switch arbitration on all
	// routers.
	PriorityArb bool

	// Fault configures deterministic fault injection on links and router
	// ports. The zero value disables injection entirely: no injector is
	// built and the routers' fault paths are never entered, so a rate-0
	// run is bit-identical to a build without the fault layer.
	Fault fault.Config
}

// DefaultConfig returns the paper's Table 1 network configuration for an
// 8×8 mesh: 6 VCs per port, 4-flit VC buffers.
func DefaultConfig() Config {
	return Config{Mesh: Mesh{Width: 8, Height: 8}, VCsPerPort: 6, VCDepth: 4}
}

// Network is the full mesh: routers, links and network interfaces, driven
// by the simulation engine.
type Network struct {
	cfg     Config
	mesh    Mesh
	eng     *sim.Engine
	routers []*Router
	nis     []*NI
	pktID   uint64
	pool    packetPool

	// vcsPerVNet is VCsPerPort / NumVNets, the width of each vnet's VC
	// class (Router.vcClass).
	vcsPerVNet int

	// fault is nil unless cfg.Fault enables injection; routers gate every
	// fault-path branch on this single pointer.
	fault *fault.Injector

	// Sharding state (see shard.go): zero until SetShards enables the
	// parallel tick pass. shardPools keeps the per-shard packet free
	// lists alive; shardSt holds each shard's cross-boundary staging.
	shards           int
	shardSt          []nocShard
	shardPools       []packetPool
	mergeIdx         []int
	boundaryArrivals uint64
	boundaryCredits  uint64

	// OnLinkRetry and OnLinkDead, when set, observe the link layer's
	// retransmission machinery: a faulted flit transmission scheduled for
	// retry (attempt counts from 1), and a link declared dead after its
	// bounded retries were exhausted. Both fire only on fault-injected
	// runs and follow the package's nil-check discipline — unset hooks
	// cost nothing. The packet must not be retained past the call.
	OnLinkRetry func(now sim.Cycle, at NodeID, toward Port, p *Packet, attempt int)
	OnLinkDead  func(now sim.Cycle, at NodeID, toward Port, p *Packet)
}

// New builds and wires a mesh network and registers it with the engine.
func New(eng *sim.Engine, cfg Config) (*Network, error) {
	if cfg.VCsPerPort%int(NumVNets) != 0 || cfg.VCsPerPort <= 0 || cfg.VCsPerPort > math.MaxUint16 {
		return nil, fmt.Errorf("noc: VCsPerPort=%d must be a positive multiple of %d, at most %d", cfg.VCsPerPort, NumVNets, math.MaxUint16)
	}
	if cfg.VCDepth <= 0 {
		return nil, fmt.Errorf("noc: VCDepth=%d must be positive", cfg.VCDepth)
	}
	if cfg.Mesh.Width <= 0 || cfg.Mesh.Height <= 0 {
		return nil, fmt.Errorf("noc: invalid mesh %dx%d", cfg.Mesh.Width, cfg.Mesh.Height)
	}
	n := &Network{cfg: cfg, mesh: cfg.Mesh, eng: eng, fault: fault.New(cfg.Fault),
		vcsPerVNet: cfg.VCsPerPort / int(NumVNets)}
	nodes := cfg.Mesh.Nodes()
	n.routers = make([]*Router, nodes)
	n.nis = make([]*NI, nodes)
	perRouter := int(NumPorts) * cfg.VCsPerPort
	vcs := make([]inputVC, nodes*perRouter)
	for id := 0; id < nodes; id++ {
		n.routers[id] = newRouter(NodeID(id), n, vcs[id*perRouter:(id+1)*perRouter:(id+1)*perRouter])
	}
	for id := 0; id < nodes; id++ {
		r := n.routers[id]
		for p := North; p <= West; p++ {
			if cfg.Mesh.hasNeighbor(NodeID(id), p) {
				r.neighbors[p] = n.routers[cfg.Mesh.neighbor(NodeID(id), p)]
				for v := 0; v < cfg.VCsPerPort; v++ {
					r.outCred[p][v] = cfg.VCDepth
				}
			}
		}
		// Local ejection is never back-pressured: the NI consumes flits
		// at link rate.
		for v := 0; v < cfg.VCsPerPort; v++ {
			r.outCred[Local][v] = 1 << 30
		}
		n.nis[id] = newNI(NodeID(id), r, eng)
	}
	// Routers and NIs participate in the engine's wake/sleep protocol:
	// each keeps its registration handle, wakes on new work (link
	// arrivals, credits, injections) and sleeps when quiescent, so an
	// idle mesh costs no tick work at all.
	for _, r := range n.routers {
		r.handle = eng.Register(r)
	}
	for _, ni := range n.nis {
		ni.handle = eng.Register(ni)
	}
	return n, nil
}

// Mesh returns the topology.
func (n *Network) Mesh() Mesh { return n.mesh }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Router returns the router at node id.
func (n *Network) Router(id NodeID) *Router { return n.routers[id] }

// NI returns the network interface at node id.
func (n *Network) NI(id NodeID) *NI { return n.nis[id] }

// FaultInjector returns the network's fault injector, or nil when fault
// injection is disabled.
func (n *Network) FaultInjector() *fault.Injector { return n.fault }

// FaultStats returns the injector's decision counters (zero when fault
// injection is disabled).
func (n *Network) FaultStats() fault.Stats {
	if n.fault == nil {
		return fault.Stats{}
	}
	return n.fault.Stats
}

// nextPacketID issues network-unique packet IDs.
func (n *Network) nextPacketID() uint64 {
	n.pktID++
	return n.pktID
}

// NewPacket returns a zeroed packet from the network's free list. Packets
// obtained here are recycled automatically once delivered to a sink or
// consumed by an interceptor, so senders on the steady-state protocol
// paths avoid a heap allocation per message. Callers may still inject
// packets they allocated themselves; those simply join the free list when
// they die.
func (n *Network) NewPacket() *Packet { return n.pool.get() }

// InFlight reports packets injected but not yet delivered or consumed by an
// interceptor, used by tests and the deadlock watchdog.
func (n *Network) InFlight() int {
	var injected, delivered, consumed uint64
	for _, ni := range n.nis {
		injected += ni.Injected
		delivered += ni.Delivered
	}
	for _, r := range n.routers {
		consumed += r.Stats.PacketsConsumed
	}
	return int(injected - delivered - consumed)
}

// MeanLatency returns the mean end-to-end packet latency in cycles across
// all NIs.
func (n *Network) MeanLatency() float64 {
	var l LatencySum
	for _, ni := range n.nis {
		l.TotalCycles += ni.TotalCycles
		l.Count += ni.Count
	}
	return l.Mean()
}
