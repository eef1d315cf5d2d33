package noc

import (
	"inpg/internal/fault"
	"inpg/internal/sim"
)

// Interceptor is the hook through which big routers (package bigrouter)
// participate in packet switching. Intercept is invoked exactly once per
// router visit, at the moment the head flit of a single-flit packet enters
// an input virtual channel (multi-flit data packets are never lock-protocol
// control messages and pass through uninspected).
//
// The interceptor may mutate the packet in place (e.g. convert a stopped
// GetX into a FwdGetX bound for the home node), consume it entirely, and/or
// hand newly generated packets to the router, which injects them through
// the local network interface (the paper's "separate VC" for generated
// packets).
//
// A consumed packet's shell is recycled by the network: the interceptor
// must not retain it past the Intercept call and must not return it among
// the generated packets (its payload may be read, and reused in fresh
// packets, before returning).
type Interceptor interface {
	Intercept(now sim.Cycle, r *Router, p *Packet) (consume bool, generated []*Packet)
}

// inputVC is one virtual-channel FIFO on a router input port. The route
// state (outPort, outVC) always describes the packet at the front of the
// buffer.
type inputVC struct {
	buf    []flit
	routed bool

	// port and vc name this input VC; its slot in Router.in is
	// port*VCsPerPort + vc. Stored so the allocation stages, which walk
	// slots, never divide a slot back into its (port, vc) pair. Narrow
	// types keep them in routed's padding word.
	port uint8
	vc   uint16

	outPort   Port
	outVC     int
	headSince sim.Cycle

	// Link-level retransmission state for the front flit (fault injection
	// only; all three stay zero when no injector is installed). A faulted
	// transmission leaves the flit at buf[0] — retrying before dequeue is
	// what preserves wormhole flit order — and schedules the retry at
	// nextTry with exponential backoff. Once retries exceeds the injector's
	// bound the VC is declared dead: the link has failed, the wormhole
	// channel wedges, and the liveness watchdog reports it.
	retries int
	nextTry sim.Cycle
	dead    bool
}

func (vc *inputVC) reset() {
	vc.routed = false
	vc.outVC = -1
	vc.retries = 0
	vc.nextTry = 0
}

// arrival is a flit in flight on a link toward this router.
type arrival struct {
	f    flit
	port Port
	vc   int
	at   sim.Cycle
}

// creditMsg is a credit in flight back to this router's output port.
type creditMsg struct {
	port Port
	vc   int
	at   sim.Cycle
}

// RouterStats aggregates per-router activity counters.
type RouterStats struct {
	FlitsSwitched   uint64
	PacketsConsumed uint64 // removed by the interceptor
	PacketsSeen     uint64 // head flits accepted at input VCs
	LinkRetries     uint64 // flit transmissions that faulted and were retried
	LinkFailures    uint64 // input VCs declared dead after retries exhausted
	VCStalls        uint64 // switch requests denied for lack of downstream credit
}

// Router is one mesh router: NumPorts input ports × VCsPerPort virtual
// channels, credit-based flow control, XY routing and a 2-stage pipeline
// modeled as a minimum 2-cycle per-hop latency.
type Router struct {
	ID  NodeID
	net *Network

	neighbors [NumPorts]*Router
	in        []inputVC // input VCs by slot = port*VCsPerPort + vc
	outCred   [NumPorts][]int
	outOwner  [NumPorts][]*inputVC // nil = output VC free

	inbox   []arrival
	credits []creditMsg

	interceptor Interceptor
	ni          *NI

	saRR  int // round-robin pointer over (port,vc) slots
	Stats RouterStats

	// x, y are the router's own mesh coordinates, cached so XY route
	// computation decodes only the destination.
	x, y int

	buffered int // flits currently buffered; 0 lets Tick exit early

	// occ lists the occupied input VCs as sorted slot ids
	// (slot = port*VCsPerPort + vc), so the allocation stages visit only
	// live VCs instead of scanning all NumPorts×VCsPerPort slots. The
	// ascending order preserves the exact visit order of the full scan.
	occ []int

	// handle is the router's wake/sleep handle; a router sleeps when it
	// holds no flits and its link queues are empty, and is woken by link
	// arrivals, returning credits and NI flit pushes.
	handle sim.Handle

	// Sharding (see shard.go). pool is the free list this router
	// allocates from and recycles to: the network-wide pool normally,
	// the owning shard's pool under SetShards. stagePush[p] routes
	// pushes through port p via the staging buffers (the neighbor is a
	// boundary router); stageCred[p] stages credits (the neighbor is in
	// another shard). All false unsharded, so the direct paths are
	// untouched.
	shard     int32
	pool      *packetPool
	stagePush [NumPorts]bool
	stageCred [NumPorts]bool
}

// newRouter builds router id around in, its NumPorts×VCsPerPort input
// VCs (the network allocates all routers' VCs in one block).
func newRouter(id NodeID, net *Network, in []inputVC) *Router {
	r := &Router{ID: id, net: net, in: in}
	r.x, r.y = net.mesh.Coord(id)
	nvc := net.cfg.VCsPerPort
	for s := range r.in {
		r.in[s] = inputVC{port: uint8(s / nvc), vc: uint16(s % nvc), outVC: -1, buf: make([]flit, 0, net.cfg.VCDepth)}
	}
	for p := Port(0); p < NumPorts; p++ {
		r.outCred[p] = make([]int, nvc)
		r.outOwner[p] = make([]*inputVC, nvc)
	}
	r.occ = make([]int, 0, len(in))
	r.pool = &net.pool
	return r
}

// wake puts the router back into the engine's tick set.
func (r *Router) wake() { r.net.eng.Wake(r.handle) }

// occInsert adds slot s to the occupied-VC list, keeping it sorted.
func (r *Router) occInsert(s int) {
	i := 0
	for i < len(r.occ) && r.occ[i] < s {
		i++
	}
	r.occ = append(r.occ, 0)
	copy(r.occ[i+1:], r.occ[i:])
	r.occ[i] = s
}

// occRemove drops slot s from the occupied-VC list.
func (r *Router) occRemove(s int) {
	for i, v := range r.occ {
		if v == s {
			r.occ = append(r.occ[:i], r.occ[i+1:]...)
			return
		}
	}
}

// SetInterceptor installs (or removes, with nil) the packet-generation hook
// that turns this normal router into a big router.
func (r *Router) SetInterceptor(i Interceptor) { r.interceptor = i }

// NI returns the network interface attached to this router's local port.
func (r *Router) NI() *NI { return r.ni }

// NewPacket returns a zeroed packet from the router's free list;
// interceptors use it to build generated packets allocation-free.
func (r *Router) NewPacket() *Packet { return r.pool.get() }

// InShardedPass reports whether a parallel tick pass is executing.
// Interceptors use it to route side effects on shared simulation state
// (trace buffers, histograms) through DeferToBarrier. Always false on an
// unsharded network.
func (r *Router) InShardedPass() bool { return r.net.eng.InPass() }

// DeferToBarrier defers fn to the end-of-cycle barrier of the current
// sharded pass. Deferred effects replay on the main goroutine in exactly
// the order inline execution would have produced (see sim.PassDefer).
func (r *Router) DeferToBarrier(fn func()) { r.net.eng.PassDefer(r.shard, fn) }

// vcClass returns the half-open VC index range reserved for a vnet.
func (r *Router) vcClass(v VNet) (lo, hi int) {
	per := r.net.vcsPerVNet
	return int(v) * per, (int(v) + 1) * per
}

// slot returns the index in r.in of input VC (port, vc).
func (r *Router) slot(port Port, vc int) int { return int(port)*r.net.cfg.VCsPerPort + vc }

// routeXY is Mesh.RouteXY from this router, decoding only dst.
func (r *Router) routeXY(dst NodeID) Port {
	dx, dy := r.net.mesh.Coord(dst)
	return xyPort(r.x, r.y, dx, dy)
}

// acceptFlit places an arriving flit into input VC (port, vcIdx), first
// giving the interceptor a chance to consume or rewrite the packet.
// It reports whether the flit was consumed (not buffered).
func (r *Router) acceptFlit(now sim.Cycle, port Port, vcIdx int, f flit) bool {
	if f.head() {
		r.Stats.PacketsSeen++
		if r.interceptor != nil && f.pkt.Size == 1 {
			consume, generated := r.interceptor.Intercept(now, r, f.pkt)
			for _, g := range generated {
				r.ni.Inject(g)
			}
			if consume {
				r.Stats.PacketsConsumed++
				r.pool.put(f.pkt)
				return true
			}
		}
	}
	f.bufferedAt = now
	s := r.slot(port, vcIdx)
	vc := &r.in[s]
	vc.buf = append(vc.buf, f)
	if len(vc.buf) == 1 {
		r.occInsert(s)
	}
	r.buffered++
	r.wake()
	return false
}

// Tick advances the router one cycle: drain link arrivals and returning
// credits, compute routes and allocate output VCs for new heads, then run
// switch allocation and traversal for one flit per input port and one flit
// per output (port, VC).
func (r *Router) Tick(now sim.Cycle) {
	// Returning credits.
	if len(r.credits) > 0 {
		kept := r.credits[:0]
		for _, c := range r.credits {
			if c.at <= now {
				r.outCred[c.port][c.vc]++
			} else {
				kept = append(kept, c)
			}
		}
		r.credits = kept
	}

	// Link arrivals.
	if len(r.inbox) > 0 {
		kept := r.inbox[:0]
		for _, a := range r.inbox {
			if a.at <= now {
				if r.acceptFlit(now, a.port, a.vc, a.f) {
					// Consumed by the interceptor: the buffer slot is free
					// again, so return the credit upstream immediately.
					r.returnCredit(now, a.port, a.vc)
				}
			} else {
				kept = append(kept, a)
			}
		}
		r.inbox = kept
	}

	if r.buffered == 0 {
		// Quiescent: no flits buffered, nothing in flight toward us. Drop
		// out of the tick set; arrivals, credits and NI pushes wake us.
		if len(r.inbox) == 0 && len(r.credits) == 0 {
			r.net.eng.Sleep(r.handle)
		}
		return
	}

	// Stage 1: route computation + output VC allocation for front heads.
	// Only occupied VCs are visited, in the same ascending (port, vc)
	// order as a full scan.
	for _, s := range r.occ {
		vc := &r.in[s]
		if !vc.buf[0].head() {
			continue
		}
		pkt := vc.buf[0].pkt
		if !vc.routed {
			vc.outPort = r.routeXY(pkt.Dst)
			vc.routed = true
			vc.headSince = now
		}
		if vc.outVC < 0 {
			lo, hi := r.vcClass(pkt.VNet)
			for ov := lo; ov < hi; ov++ {
				if r.outOwner[vc.outPort][ov] == nil {
					r.outOwner[vc.outPort][ov] = vc
					vc.outVC = ov
					break
				}
			}
		}
	}

	// Stage 2: switch allocation + traversal. One flit per input port and
	// one flit per output port per cycle (single crossbar connection each).
	// The round-robin scan starts at saRR and wraps; restricting it to the
	// occupied-VC list visits the same candidates in the same order as the
	// full slot scan.
	var grantedIn [NumPorts]bool
	var grantedOut [NumPorts]bool
	// Collect one winner per output port, as an input VC slot.
	var winners [NumPorts]int
	var hasWinner [NumPorts]bool
	nocc := len(r.occ)
	first := 0
	for first < nocc && r.occ[first] < r.saRR {
		first++
	}
	for i := 0; i < nocc; i++ {
		j := first + i
		if j >= nocc {
			j -= nocc
		}
		slot := r.occ[j]
		vc := &r.in[slot]
		p := Port(vc.port)
		if grantedIn[p] || !vc.routed || vc.outVC < 0 {
			continue
		}
		if vc.dead || vc.nextTry > now {
			continue // failed link, or retransmission backoff still running
		}
		f := vc.buf[0]
		if f.bufferedAt >= now {
			continue // models the 2-stage pipeline: never same-cycle switch
		}
		op := vc.outPort
		if r.net.fault != nil && op != Local && r.net.fault.PortStalled(now, int(r.ID), int(op)) {
			continue // output port transiently stalled: no grant crosses it
		}
		if r.outCred[op][vc.outVC] <= 0 {
			r.Stats.VCStalls++
			continue
		}
		if grantedOut[op] {
			// An earlier round-robin candidate holds this output; under
			// priority arbitration a strictly better packet may steal it.
			if !r.net.cfg.PriorityArb {
				continue
			}
			w := &r.in[winners[op]]
			if !betterPriority(now, vc, w) || grantedIn[p] {
				continue
			}
			grantedIn[Port(w.port)] = false
			winners[op] = slot
			grantedIn[p] = true
			continue
		}
		grantedOut[op] = true
		grantedIn[p] = true
		winners[op] = slot
		hasWinner[op] = true
	}
	for op := Port(0); op < NumPorts; op++ {
		if hasWinner[op] {
			r.traverse(now, winners[op])
		}
	}
	if r.saRR++; r.saRR == len(r.in) {
		r.saRR = 0
	}

	if r.buffered == 0 && len(r.inbox) == 0 && len(r.credits) == 0 {
		r.net.eng.Sleep(r.handle)
	}
}

// agingQuantum is the head-of-line wait that buys one effective priority
// level — the starvation-avoidance the paper attributes to the progress
// information OCOR embeds in request packets: a long-stalled low-priority
// packet eventually outranks fresh high-priority traffic.
const agingQuantum = 64

// betterPriority reports whether input VC a's front packet should beat b's
// under OCOR arbitration: higher aged priority first, then older head.
func betterPriority(now sim.Cycle, a, b *inputVC) bool {
	pa := effectivePriority(now, a)
	pb := effectivePriority(now, b)
	if pa != pb {
		return pa > pb
	}
	return a.headSince < b.headSince
}

// effectivePriority is the packet's priority plus its head-of-line age in
// aging quanta.
func effectivePriority(now sim.Cycle, vc *inputVC) int {
	return vc.buf[0].pkt.Priority + int(now-vc.headSince)/agingQuantum
}

// traverse moves the front flit of the input VC at slot s through the
// crossbar onto its output link (or into the local NI).
func (r *Router) traverse(now sim.Cycle, s int) {
	vc := &r.in[s]
	f := vc.buf[0]
	if r.net.fault != nil && vc.outPort != Local {
		// The link layer: transmit, CRC-check at the receiver, ack/nack. A
		// faulted flit (lost, or nacked on CRC failure) stays at the head of
		// its input VC — retry-before-dequeue keeps wormhole flit order —
		// and is retransmitted after an exponentially backed-off timeout.
		// Credits and buffer occupancy are untouched by a failed attempt.
		if k := r.net.fault.LinkFault(now, int(r.ID), int(vc.outPort), f.pkt.ID, f.idx); k != fault.None {
			vc.retries++
			r.Stats.LinkRetries++
			if r.net.OnLinkRetry != nil {
				// The hooks append to shared trace state; during a
				// sharded pass they replay at the barrier instead. The
				// faulted flit stays at the head of its VC, so the
				// captured packet is alive when the closure runs.
				if attempt := vc.retries; r.net.eng.InPass() {
					id, toward, pkt := r.ID, vc.outPort, f.pkt
					r.net.eng.PassDefer(r.shard, func() {
						r.net.OnLinkRetry(now, id, toward, pkt, attempt)
					})
				} else {
					r.net.OnLinkRetry(now, r.ID, vc.outPort, f.pkt, attempt)
				}
			}
			if vc.retries > r.net.fault.MaxRetries() {
				vc.dead = true
				r.Stats.LinkFailures++
				if r.net.OnLinkDead != nil {
					if r.net.eng.InPass() {
						id, toward, pkt := r.ID, vc.outPort, f.pkt
						r.net.eng.PassDefer(r.shard, func() {
							r.net.OnLinkDead(now, id, toward, pkt)
						})
					} else {
						r.net.OnLinkDead(now, r.ID, vc.outPort, f.pkt)
					}
				}
			} else {
				backoff := r.net.fault.Backoff(vc.retries)
				vc.nextTry = now + backoff
				if f.pkt.Journey != nil {
					f.pkt.JRetry += uint64(backoff)
				}
			}
			return
		}
		vc.retries = 0
	}
	if f.pkt.Journey != nil && f.head() {
		// Head-flit residency in this input VC beyond the mandatory
		// pipeline cycle is contention: time lost to switch allocation,
		// credit stalls and retransmission backoff (JRetry carves the
		// backoff share back out at fold time). Counted on every hop,
		// including the final Local ejection.
		if wait := uint64(now - f.bufferedAt); wait > 1 {
			f.pkt.JVCWait += wait - 1
		}
	}
	// Shift down instead of reslicing: vc.buf[1:] would strand the front
	// capacity and force append to reallocate on nearly every arrival (the
	// dominant steady-state allocation). Buffers are at most VCDepth flits,
	// so the copy is a few words.
	n := copy(vc.buf, vc.buf[1:])
	vc.buf = vc.buf[:n]
	if n == 0 {
		r.occRemove(s)
	}
	r.buffered--
	r.Stats.FlitsSwitched++
	op := vc.outPort
	ov := vc.outVC

	if op == Local {
		r.ni.eject(now, f)
	} else {
		r.outCred[op][ov]--
		nb := r.neighbors[op]
		if r.stagePush[op] {
			// Boundary destination: the push (and its wake) applies at
			// the barrier, merged across shards into sequential order.
			r.net.stageArrival(r.shard, r.handle, nb, arrival{f: f, port: op.opposite(), vc: ov, at: now + 1})
		} else {
			nb.inbox = append(nb.inbox, arrival{f: f, port: op.opposite(), vc: ov, at: now + 1})
			nb.wake()
		}
		if f.head() {
			f.pkt.Hops++
		}
	}
	if f.tail {
		r.outOwner[op][ov] = nil
		vc.reset()
	}
	r.returnCredit(now, Port(vc.port), int(vc.vc))
}

// returnCredit sends one buffer credit for input VC (p, v) back upstream.
// Local-port occupancy is observed directly by the NI, so no credit message
// is needed there.
func (r *Router) returnCredit(now sim.Cycle, p Port, v int) {
	if p == Local {
		return
	}
	nb := r.neighbors[p]
	if r.stageCred[p] {
		// Cross-shard credit: staged, applied (and the neighbor woken)
		// at the barrier. Credit application is commutative, so staged
		// credits need no cross-shard ordering.
		r.net.stageCredit(r.shard, nb, creditMsg{port: p.opposite(), vc: v, at: now + 1})
		return
	}
	nb.credits = append(nb.credits, creditMsg{port: p.opposite(), vc: v, at: now + 1})
	nb.wake()
}

// localVCSpace reports the free slots in local input VC v, used by the NI
// in lieu of credit messages.
func (r *Router) localVCSpace(v int) int {
	return r.net.cfg.VCDepth - len(r.in[r.slot(Local, v)].buf)
}
