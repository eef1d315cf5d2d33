package sim

import "math/bits"

// The event calendar: a two-tier future-event queue that fires events in
// exactly (at, seq) order, where seq is the order of the Schedule calls.
//
// The near tier is a wheel of wheelSlots per-cycle FIFO buckets holding
// every event due less than wheelSlots cycles ahead; bucket at&(wheelSlots-1)
// holds the events of cycle at, in schedule order. The far tier is a binary
// heap ordered by (at, seq) for the rest. On a contended chip almost every
// event is due within a few cycles (NI deliveries, directory and DRAM
// latencies), so scheduling and firing are O(1) list operations and the
// heap only sees the threads' parallel phases and sleeps.
//
// Ordering rests on one invariant, restored at the start of every Step:
// far events are all due at least wheelSlots cycles after now, and wheel
// events are due in (now, now+wheelSlots). Step first moves the far events
// that have come within the window into their buckets, before any callback
// or tick of that cycle can schedule into them. A far event due at X was
// scheduled at or before X-wheelSlots and a wheel event due at X at or
// after X-wheelSlots+1, so the migrated ones enter their (still empty)
// bucket first and every bucket stays in seq order.

// wheelSlots is the near tier's span in cycles. A power of two, so the
// bucket of a cycle is a mask; a multiple of 64, so nonEmpty is whole words.
const wheelSlots = 256

// wheelWords is the length of the nonEmpty bitmap.
const wheelWords = wheelSlots / 64

// event is a far-tier scheduled callback.
type event struct {
	at  Cycle
	seq uint64 // tie-break so same-cycle events fire in schedule order
	fn  func()
}

// eventHeap is a min-heap of events ordered by (at, seq).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// calNode is one wheel event. Nodes live in one pool and are linked by
// 1-based index (0 ends a list), so the buckets and the free list share
// the pool and the calendar's memory follows the outstanding events, not
// slots × the largest burst a slot ever held.
type calNode struct {
	fn   func()
	next int32
}

// bucket is one cycle's FIFO: the first and last node, 0 when empty.
type bucket struct{ head, tail int32 }

// calendar is the engine's future-event queue (see the top of this file).
type calendar struct {
	wheel    [wheelSlots]bucket
	nonEmpty [wheelWords]uint64 // bit s set while wheel[s] is non-empty
	nodes    []calNode
	free     int32 // head of the free node list
	near     int   // events in the wheel
	far      eventHeap
	seq      uint64 // far-tier schedule order
}

// Preallocated pool and heap capacity. An 8×8 platform keeps at most 73
// events outstanding (12 to 54 on average, by workload), up to 64 of them
// far events: one parallel phase or sleep per thread. A 16×16 one keeps
// up to 261, 256 far. Larger runs grow both by appending.
const (
	calNodePrealloc = 128
	farPrealloc     = 64
)

func newCalendar() calendar {
	return calendar{
		nodes: make([]calNode, 0, calNodePrealloc),
		far:   make(eventHeap, 0, farPrealloc),
	}
}

// len reports the events not yet fired, in both tiers.
func (c *calendar) len() int { return c.near + len(c.far) }

// pushFar files fn in the heap tier, for a cycle wheelSlots or more
// ahead.
func (c *calendar) pushFar(at Cycle, fn func()) {
	c.seq++
	c.far.push(event{at: at, seq: c.seq, fn: fn})
}

// pushNear appends fn to the bucket of cycle at, which is due within
// wheelSlots cycles.
func (c *calendar) pushNear(at Cycle, fn func()) {
	i := c.free
	if i != 0 {
		c.free = c.nodes[i-1].next
		c.nodes[i-1] = calNode{fn: fn}
	} else {
		c.nodes = append(c.nodes, calNode{fn: fn})
		i = int32(len(c.nodes))
	}
	s := uint(at) & (wheelSlots - 1)
	b := &c.wheel[s]
	if b.tail == 0 {
		b.head = i
		c.nonEmpty[s>>6] |= 1 << (s & 63)
	} else {
		c.nodes[b.tail-1].next = i
	}
	b.tail = i
	c.near++
}

// migrate moves the far events due before now+wheelSlots into the wheel.
// The heap yields them in (at, seq) order.
func (c *calendar) migrate(now Cycle) {
	for len(c.far) > 0 && c.far[0].at-now < wheelSlots {
		ev := c.far.pop()
		c.pushNear(ev.at, ev.fn)
	}
}

// fire runs the events of cycle now in schedule order and returns how
// many ran. A callback schedules at now+1 or later, never into this
// bucket, so the list is detached up front and walked to its end.
func (c *calendar) fire(now Cycle) uint64 {
	s := uint(now) & (wheelSlots - 1)
	i := c.wheel[s].head
	if i == 0 {
		return 0
	}
	c.wheel[s] = bucket{}
	c.nonEmpty[s>>6] &^= 1 << (s & 63)
	n := uint64(0)
	for i != 0 {
		nd := &c.nodes[i-1]
		fn, next := nd.fn, nd.next
		*nd = calNode{next: c.free}
		c.free = i
		c.near--
		fn()
		n++
		i = next
	}
	return n
}

// nextDue returns the cycle of the earliest pending event. Wheel events
// are all due in (now, now+wheelSlots), before any far event, so the first
// non-empty bucket after now's, in wrap-around order, holds it.
func (c *calendar) nextDue(now Cycle) (Cycle, bool) {
	if c.near > 0 {
		s := uint(now+1) & (wheelSlots - 1)
		wi := s >> 6
		w := c.nonEmpty[wi] &^ (1<<(s&63) - 1)
		for w == 0 {
			wi = (wi + 1) & (wheelWords - 1)
			w = c.nonEmpty[wi]
		}
		slot := wi<<6 | uint(bits.TrailingZeros64(w))
		return now + 1 + Cycle((slot-s)&(wheelSlots-1)), true
	}
	if len(c.far) > 0 {
		return c.far[0].at, true
	}
	return 0, false
}
