package noc

import (
	"fmt"

	"inpg/internal/fault"
	"inpg/internal/sim"
)

// VCDiag is a snapshot of one occupied router input virtual channel, taken
// when the liveness watchdog trips so the wedged state can be reported.
type VCDiag struct {
	Node int
	Port string // input port: "L","N","E","S","W"
	VC   int

	Flits   int       // buffered flits
	PktID   uint64    // packet at the front of the buffer
	PktSrc  int       // its source node
	PktDst  int       // its destination node
	OutPort string    // allocated output port ("?" if unrouted)
	Age     sim.Cycle // cycles the front flit has sat buffered

	Retries int  // retransmission attempts for the front flit
	Dead    bool // retries exhausted: the outgoing link has failed
}

func (d VCDiag) String() string {
	s := fmt.Sprintf("router %d in[%s][%d]: %d flit(s), pkt %d %d->%d via %s, head age %d",
		d.Node, d.Port, d.VC, d.Flits, d.PktID, d.PktSrc, d.PktDst, d.OutPort, d.Age)
	if d.Retries > 0 {
		s += fmt.Sprintf(", %d retries", d.Retries)
	}
	if d.Dead {
		s += " [LINK DEAD]"
	}
	return s
}

// NIDiag is a snapshot of one non-idle network interface.
type NIDiag struct {
	Node    int
	Queued  int // packets waiting for serialization
	Active  int // packets mid-serialization into local VCs
	Pending int // ejected packets awaiting sink delivery
}

func (d NIDiag) String() string {
	return fmt.Sprintf("ni %d: %d queued, %d serializing, %d pending delivery",
		d.Node, d.Queued, d.Active, d.Pending)
}

// NetDiag is the network half of a stall diagnosis: every occupied input VC
// and non-idle NI, in deterministic (node, port, vc) order.
type NetDiag struct {
	InFlight int
	VCs      []VCDiag
	NIs      []NIDiag
	Fault    fault.Stats
}

// Diagnostics captures the network state at cycle now. It is read-only and
// deterministic: slices are ordered by (node, port, vc).
func (n *Network) Diagnostics(now sim.Cycle) NetDiag {
	d := NetDiag{InFlight: n.InFlight(), Fault: n.FaultStats()}
	for _, r := range n.routers {
		for s := range r.in {
			vc := &r.in[s]
			if len(vc.buf) == 0 {
				continue
			}
			f := vc.buf[0]
			out := "?"
			if vc.routed {
				out = vc.outPort.String()
			}
			d.VCs = append(d.VCs, VCDiag{
				Node:    int(r.ID),
				Port:    Port(vc.port).String(),
				VC:      int(vc.vc),
				Flits:   len(vc.buf),
				PktID:   f.pkt.ID,
				PktSrc:  int(f.pkt.Src),
				PktDst:  int(f.pkt.Dst),
				OutPort: out,
				Age:     now - f.bufferedAt,
				Retries: vc.retries,
				Dead:    vc.dead,
			})
		}
	}
	for _, ni := range n.nis {
		if ni.queued == 0 && ni.activeCount == 0 && len(ni.pendingDeliver) == 0 {
			continue
		}
		d.NIs = append(d.NIs, NIDiag{
			Node:    int(ni.ID),
			Queued:  ni.queued,
			Active:  ni.activeCount,
			Pending: len(ni.pendingDeliver),
		})
	}
	return d
}

// DeadLinks returns the subset of diagnosed VCs whose outgoing link has
// failed (retries exhausted), the usual root cause of a watchdog trip under
// fault injection.
func (d NetDiag) DeadLinks() []VCDiag {
	var out []VCDiag
	for _, vc := range d.VCs {
		if vc.Dead {
			out = append(out, vc)
		}
	}
	return out
}
