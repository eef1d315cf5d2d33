package noc

import (
	"testing"

	"inpg/internal/sim"
)

// These tests target router mechanics that the delivery-level tests in
// network_test.go cannot distinguish: credit accounting, virtual-network
// separation, wormhole contiguity and arbitration fairness.

func twoNodeNet(t *testing.T, depth int) (*sim.Engine, *Network, *[]*Packet) {
	t.Helper()
	eng := sim.NewEngine(9)
	n, err := New(eng, Config{Mesh: Mesh{Width: 2, Height: 1}, VCsPerPort: 6, VCDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	var got []*Packet
	n.NI(1).SetSink(SinkFunc(func(_ sim.Cycle, p *Packet) { got = append(got, p) }))
	n.NI(0).SetSink(SinkFunc(func(_ sim.Cycle, p *Packet) { got = append(got, p) }))
	return eng, n, &got
}

func TestCreditsConservedAfterDrain(t *testing.T) {
	eng, n, got := twoNodeNet(t, 4)
	for i := 0; i < 20; i++ {
		n.NI(0).Inject(&Packet{Dst: 1, VNet: VNetRequest, Size: 1})
	}
	eng.Run(5000, func() bool { return n.InFlight() == 0 })
	if len(*got) != 20 {
		t.Fatalf("delivered %d, want 20", len(*got))
	}
	// After draining, every output credit at router 0 toward router 1 must
	// be restored to the full buffer depth.
	r0 := n.Router(0)
	for v := 0; v < 6; v++ {
		if c := r0.outCred[r0.slot(East, v)]; c != 4 {
			t.Fatalf("credit leak: East VC %d holds %d credits, want 4", v, c)
		}
	}
}

// TestVCBuffersStayInCarvedBlock drains heavy all-to-all traffic on an
// 8×8 mesh and checks that every input VC's flit buffer still has exactly
// VCDepth capacity: credit flow control never let a buffer outgrow the
// share of the network-wide flit block it was carved from.
func TestVCBuffersStayInCarvedBlock(t *testing.T) {
	eng := sim.NewEngine(5)
	cfg := DefaultConfig()
	n, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := cfg.Mesh.Nodes()
	delivered := 0
	for id := 0; id < nodes; id++ {
		n.NI(NodeID(id)).SetSink(SinkFunc(func(sim.Cycle, *Packet) { delivered++ }))
	}
	injected := 0
	for src := 0; src < nodes; src++ {
		for k := 1; k <= 8; k++ {
			dst := NodeID((src + 9*k) % nodes)
			size := 1
			if k%2 == 0 {
				size = 5
			}
			n.NI(NodeID(src)).Inject(&Packet{Dst: dst, VNet: VNet(k % int(NumVNets)), Size: size})
			injected++
		}
	}
	if _, err := eng.Run(50_000, func() bool { return n.InFlight() == 0 }); err != nil {
		t.Fatal(err)
	}
	if delivered != injected {
		t.Fatalf("delivered %d of %d packets", delivered, injected)
	}
	for id := 0; id < nodes; id++ {
		r := n.Router(NodeID(id))
		for s := range r.in {
			if vc := &r.in[s]; cap(vc.buf) != cfg.VCDepth || len(vc.buf) != 0 {
				t.Fatalf("router %d slot %d: len %d cap %d after drain, want 0 and %d",
					id, s, len(vc.buf), cap(vc.buf), cfg.VCDepth)
			}
		}
	}
}

func TestWormholeFlitContiguityPerVC(t *testing.T) {
	// Two 8-flit packets on the same vnet from the same source: their
	// flits may interleave across VCs, but each packet must arrive intact
	// and in order (delivery happens only at the tail).
	eng, n, got := twoNodeNet(t, 2)
	n.NI(0).Inject(&Packet{Dst: 1, VNet: VNetResponse, Size: 8, Addr: 1})
	n.NI(0).Inject(&Packet{Dst: 1, VNet: VNetResponse, Size: 8, Addr: 2})
	eng.Run(5000, func() bool { return n.InFlight() == 0 })
	if len(*got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(*got))
	}
}

func TestVNetSeparationUnderBlockage(t *testing.T) {
	// Saturate the request class toward a non-consuming... we cannot stop
	// consumption (sinks always consume), so instead verify that heavy
	// 8-flit response traffic does not starve single-flit request packets:
	// the request must be delivered long before the response batch drains.
	eng := sim.NewEngine(3)
	n, err := New(eng, Config{Mesh: Mesh{Width: 8, Height: 1}, VCsPerPort: 6, VCDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	var reqAt, lastRespAt sim.Cycle
	n.NI(7).SetSink(SinkFunc(func(now sim.Cycle, p *Packet) {
		if p.VNet == VNetRequest {
			reqAt = now
		} else {
			lastRespAt = now
		}
	}))
	for i := 0; i < 30; i++ {
		n.NI(0).Inject(&Packet{Dst: 7, VNet: VNetResponse, Size: 8})
	}
	n.NI(0).Inject(&Packet{Dst: 7, VNet: VNetRequest, Size: 1})
	eng.Run(20000, func() bool { return n.InFlight() == 0 })
	if reqAt == 0 || lastRespAt == 0 {
		t.Fatal("traffic not delivered")
	}
	if reqAt >= lastRespAt {
		t.Fatalf("request delivered at %d, after the whole response batch (%d): vnet separation broken", reqAt, lastRespAt)
	}
}

func TestRoundRobinFairnessTwoFlows(t *testing.T) {
	// Two sources merging into one column must share the bottleneck link
	// roughly evenly without priority arbitration.
	eng := sim.NewEngine(4)
	n, err := New(eng, Config{Mesh: Mesh{Width: 3, Height: 3}, VCsPerPort: 6, VCDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[NodeID]int{}
	var order []NodeID
	dst := n.Mesh().ID(2, 2)
	n.NI(dst).SetSink(SinkFunc(func(_ sim.Cycle, p *Packet) {
		counts[p.Src]++
		order = append(order, p.Src)
	}))
	srcA := n.Mesh().ID(2, 0) // comes down the column
	srcB := n.Mesh().ID(0, 2) // comes across the row
	for i := 0; i < 40; i++ {
		n.NI(srcA).Inject(&Packet{Dst: dst, VNet: VNetRequest, Size: 1})
		n.NI(srcB).Inject(&Packet{Dst: dst, VNet: VNetRequest, Size: 1})
	}
	eng.Run(20000, func() bool { return n.InFlight() == 0 })
	if counts[srcA] != 40 || counts[srcB] != 40 {
		t.Fatalf("lost packets: %v", counts)
	}
	// Round-robin switch allocation gives eventual, not per-window,
	// fairness; the guarantee to test is freedom from starvation: both
	// flows must make progress in the first half of the deliveries.
	half := order[:40]
	a := 0
	for _, s := range half {
		if s == srcA {
			a++
		}
	}
	if a == 0 || a == 40 {
		t.Fatalf("starvation: %d/40 from column flow in first half", a)
	}
}

func TestInterceptorSeesLocallyInjectedPackets(t *testing.T) {
	// A GetX injected at a big router's own node must be inspected too.
	eng := sim.NewEngine(5)
	n, err := New(eng, Config{Mesh: Mesh{Width: 2, Height: 1}, VCsPerPort: 6, VCDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	n.Router(0).SetInterceptor(interceptFunc(func(_ sim.Cycle, _ *Router, p *Packet) (bool, []*Packet) {
		if p.LockReq {
			seen++
		}
		return false, nil
	}))
	n.NI(1).SetSink(SinkFunc(func(sim.Cycle, *Packet) {}))
	n.NI(0).Inject(&Packet{Dst: 1, VNet: VNetRequest, Size: 1, LockReq: true})
	eng.Run(1000, func() bool { return n.InFlight() == 0 })
	if seen != 1 {
		t.Fatalf("interceptor saw %d local injections, want 1", seen)
	}
}

func TestHopsAndLatencyScaleWithDistance(t *testing.T) {
	eng := sim.NewEngine(6)
	n, err := New(eng, Config{Mesh: Mesh{Width: 8, Height: 8}, VCsPerPort: 6, VCDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	var lat1, lat14 sim.Cycle
	n.NI(1).SetSink(SinkFunc(func(_ sim.Cycle, p *Packet) { lat1 = p.DeliveredAt - p.InjectedAt }))
	n.NI(63).SetSink(SinkFunc(func(_ sim.Cycle, p *Packet) { lat14 = p.DeliveredAt - p.InjectedAt }))
	n.NI(0).Inject(&Packet{Dst: 1, VNet: VNetRequest, Size: 1})
	n.NI(0).Inject(&Packet{Dst: 63, VNet: VNetForward, Size: 1})
	eng.Run(2000, func() bool { return n.InFlight() == 0 })
	if lat14 <= lat1 {
		t.Fatalf("14-hop latency %d not above 1-hop %d", lat14, lat1)
	}
	if lat14 < 2*14 {
		t.Fatalf("14-hop latency %d below the 2-cycle/hop floor", lat14)
	}
}

func TestAgingPreventsPriorityStarvation(t *testing.T) {
	// A continuous stream of high-priority packets shares a link with one
	// low-priority packet; aging must get the low one through long before
	// the stream ends.
	eng := sim.NewEngine(8)
	n, err := New(eng, Config{Mesh: Mesh{Width: 3, Height: 1}, VCsPerPort: 6, VCDepth: 2, PriorityArb: true})
	if err != nil {
		t.Fatal(err)
	}
	var lowAt sim.Cycle
	delivered := 0
	n.NI(2).SetSink(SinkFunc(func(now sim.Cycle, p *Packet) {
		delivered++
		if p.Priority == 0 {
			lowAt = now
		}
	}))
	// The low-priority packet enters first...
	n.NI(0).Inject(&Packet{Dst: 2, VNet: VNetRequest, Size: 1, Priority: 0})
	// ...then a sustained high-priority stream from the middle node
	// competes for the same output link.
	hi := 0
	eng.Register(sim.TickFunc(func(now sim.Cycle) {
		if now < 2000 && hi < 500 {
			n.NI(1).Inject(&Packet{Dst: 2, VNet: VNetRequest, Size: 1, Priority: 8})
			hi++
		}
	}))
	eng.Run(10000, func() bool { return lowAt != 0 })
	if lowAt == 0 {
		t.Fatal("low-priority packet starved")
	}
	if lowAt > 2000 {
		t.Fatalf("low-priority packet delivered only at %d, after the stream ended: aging ineffective", lowAt)
	}
}
