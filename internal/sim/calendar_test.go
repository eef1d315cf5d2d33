package sim

import (
	"errors"
	"math/rand"
	"testing"
)

// The event calendar is checked against refCal, a reference that keeps
// every pending event in one list and fires the smallest (at, seq) first.
// Scenarios drive both through the same Schedule/ScheduleAt calls and
// clock advances, including callbacks that schedule from inside events,
// and must produce the same firing log.

// scheduler is the surface a calendar scenario drives.
type scheduler interface {
	Now() Cycle
	Schedule(delay Cycle, fn func())
	ScheduleAt(at Cycle, fn func())
}

type refCal struct {
	now Cycle
	seq uint64
	evs []event
	far uint64 // events scheduled wheelSlots or more cycles ahead
}

func (r *refCal) Now() Cycle { return r.now }

func (r *refCal) Schedule(delay Cycle, fn func()) { r.add(r.now+1+delay, fn) }

func (r *refCal) ScheduleAt(at Cycle, fn func()) {
	if at <= r.now {
		at = r.now + 1
	}
	r.add(at, fn)
}

func (r *refCal) add(at Cycle, fn func()) {
	r.seq++
	if at-r.now >= wheelSlots {
		r.far++
	}
	r.evs = append(r.evs, event{at: at, seq: r.seq, fn: fn})
}

// step advances one cycle and fires every due event in (at, seq) order.
func (r *refCal) step() {
	r.now++
	for {
		best := -1
		for i, ev := range r.evs {
			if ev.at > r.now {
				continue
			}
			if best < 0 || ev.at < r.evs[best].at || ev.at == r.evs[best].at && ev.seq < r.evs[best].seq {
				best = i
			}
		}
		if best < 0 {
			return
		}
		ev := r.evs[best]
		r.evs = append(r.evs[:best], r.evs[best+1:]...)
		ev.fn()
	}
}

type firing struct {
	id int
	at Cycle
}

// calScenario records one side's firings. Events decide from their id
// alone whether and what to schedule, so both sides make the same calls
// as long as they fire the same events in the same order.
type calScenario struct {
	s    scheduler
	log  []firing
	next int // id of the next event scheduled by a callback
}

// mix is splitmix64's finaliser: well-spread bits from an event id.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// calEdges are the delays at the calendar's tier boundaries.
var calEdges = []Cycle{0, 1, wheelSlots - 2, wheelSlots - 1, wheelSlots, wheelSlots + 1,
	2*wheelSlots - 1, 2 * wheelSlots, 2*wheelSlots + 1, 3 * wheelSlots}

// pickDelay maps x to a delay in [0, 3*wheelSlots]: a tier boundary, a
// short delay that makes same-cycle ties likely, or a uniform one.
func pickDelay(x uint64) Cycle {
	switch x % 4 {
	case 0:
		return calEdges[x/4%uint64(len(calEdges))]
	case 1:
		return Cycle(x / 4 % 8)
	default:
		return Cycle(x / 4 % (3*wheelSlots + 1))
	}
}

func (c *calScenario) event(id, depth int) func() {
	return func() {
		now := c.s.Now()
		c.log = append(c.log, firing{id, now})
		h := mix(uint64(id))
		if depth >= 3 || h%3 == 0 {
			return
		}
		for k := uint64(0); k < h>>8%3; k++ {
			c.next++
			d := pickDelay(mix(h + k))
			if h>>(16+k)&1 == 0 {
				c.s.Schedule(d, c.event(c.next, depth+1))
			} else {
				// Absolute time, a few cycles in the past at the low end.
				c.s.ScheduleAt(now+d-min(now, 3), c.event(c.next, depth+1))
			}
		}
	}
}

// TestEventHeapOrdering drives the calendar and the reference through
// random scenarios: delays from 0 to 3×wheelSlots with every tier
// boundary, same-cycle ties, ScheduleAt in the past, callbacks scheduling
// from inside events, and clock advances both by Step and by Run
// fast-forwarding across idle gaps with the only ticker asleep. After
// every operation the firing logs, PendingEvents (both tiers) and the
// Events and FarEvents counters must match the reference.
func TestEventHeapOrdering(t *testing.T) {
	var fastForwarded uint64
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(1)
		e.Sleep(e.Register(TickFunc(func(Cycle) {})))
		got := &calScenario{s: e, next: 1 << 20}
		ref := &refCal{}
		want := &calScenario{s: ref, next: 1 << 20}

		check := func(op string) {
			t.Helper()
			if len(got.log) != len(want.log) {
				t.Fatalf("seed %d after %s at cycle %d: %d events fired, reference %d", seed, op, ref.now, len(got.log), len(want.log))
			}
			for i := range want.log {
				if got.log[i] != want.log[i] {
					t.Fatalf("seed %d after %s: firing %d is event %d at cycle %d, reference event %d at cycle %d",
						seed, op, i, got.log[i].id, got.log[i].at, want.log[i].id, want.log[i].at)
				}
			}
			st := e.ExecStats()
			if e.Now() != ref.now || e.PendingEvents() != len(ref.evs) || st.Events != uint64(len(want.log)) || st.FarEvents != ref.far {
				t.Fatalf("seed %d after %s: now %d, pending %d, events %d, far %d; reference %d, %d, %d, %d",
					seed, op, e.Now(), e.PendingEvents(), st.Events, st.FarEvents, ref.now, len(ref.evs), len(want.log), ref.far)
			}
		}
		advance := func(n Cycle, run bool) {
			t.Helper()
			if run {
				var budget *BudgetError
				if _, err := e.Run(n, nil); !errors.As(err, &budget) {
					t.Fatalf("seed %d: Run(%d) = %v, want a budget error", seed, n, err)
				}
			} else {
				for i := Cycle(0); i < n; i++ {
					e.Step()
				}
			}
			for i := Cycle(0); i < n; i++ {
				ref.step()
			}
		}

		for id := 0; id < 60; id++ {
			switch op := rng.Intn(6); op {
			case 0, 1:
				d := pickDelay(rng.Uint64())
				e.Schedule(d, got.event(id, 0))
				ref.Schedule(d, want.event(id, 0))
				check("Schedule")
			case 2:
				at := ref.now + pickDelay(rng.Uint64()) - min(ref.now, 3)
				e.ScheduleAt(at, got.event(id, 0))
				ref.ScheduleAt(at, want.event(id, 0))
				check("ScheduleAt")
			default:
				n := Cycle(rng.Intn(8))
				if rng.Intn(2) == 0 {
					n = Cycle(rng.Intn(3 * wheelSlots))
				}
				advance(n, op == 5)
				check("advance")
			}
		}
		for i := 0; e.PendingEvents() > 0 || len(ref.evs) > 0; i++ {
			if i == 100 {
				t.Fatalf("seed %d: %d events still pending after draining", seed, e.PendingEvents())
			}
			advance(3*wheelSlots+1, true)
			check("drain")
		}
		fastForwarded += e.ExecStats().FastForwarded
	}
	if fastForwarded == 0 {
		t.Fatal("no scenario fast-forwarded")
	}
}

// TestCalendarFastForwardAcrossFarGaps runs a quiescent engine over
// events spaced more than the wheel's span apart: Run must step exactly
// the firing cycles and jump every gap, far-tier events included.
func TestCalendarFastForwardAcrossFarGaps(t *testing.T) {
	e := NewEngine(1)
	e.Sleep(e.Register(TickFunc(func(Cycle) {})))
	var fired []Cycle
	note := func() { fired = append(fired, e.Now()) }
	for _, at := range []Cycle{5, 5, 300, 300 + wheelSlots, 1000 + 3*wheelSlots, 9000} {
		e.ScheduleAt(at, note)
	}
	e.ScheduleAt(5, func() {
		note()
		e.Schedule(2*wheelSlots, note) // far, from inside an event: fires at 518
	})
	if _, err := e.Run(20_000, func() bool { return e.PendingEvents() == 0 }); err != nil {
		t.Fatal(err)
	}
	want := []Cycle{5, 5, 5, 300, 518, 300 + wheelSlots, 1000 + 3*wheelSlots, 9000}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
	st := e.ExecStats()
	if e.Now() != 9000 || st.Passes != 6 || st.Passes+st.FastForwarded != 9000 {
		t.Fatalf("now %d, %+v; want 9000 cycles in 6 passes (one per firing cycle)", e.Now(), st)
	}
	if st.FarEvents != 5 {
		t.Fatalf("FarEvents = %d, want 5 (all but the three due at cycle 5)", st.FarEvents)
	}
}

// TestPendingEventsCountsBothTiers schedules into the wheel and the heap
// and watches PendingEvents fall as each fires.
func TestPendingEventsCountsBothTiers(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(wheelSlots-2, func() {}) // due at wheelSlots-1: wheel
	e.Schedule(wheelSlots-1, func() {}) // due at wheelSlots: heap
	e.Schedule(0, func() {})
	if n, far := e.PendingEvents(), e.ExecStats().FarEvents; n != 3 || far != 1 {
		t.Fatalf("pending %d, far %d; want 3 and 1", n, far)
	}
	for _, want := range []struct {
		at      Cycle
		pending int
	}{{1, 2}, {wheelSlots - 1, 1}, {wheelSlots, 0}} {
		for e.Now() < want.at {
			e.Step()
		}
		if n := e.PendingEvents(); n != want.pending {
			t.Fatalf("cycle %d: pending %d, want %d", want.at, n, want.pending)
		}
	}
}

// TestScheduleStepAllocatesNothing: once the node pool and the heap have
// grown to the steady-state depth, scheduling a reused func value into
// either tier and firing it allocates nothing.
func TestScheduleStepAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	n := 0
	fn := func() { n++ }
	round := func() {
		e.Schedule(3, fn)
		e.Schedule(wheelSlots+7, fn)
		e.Step()
	}
	for i := 0; i < 4*wheelSlots; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("Schedule+Step allocated %.1f times per round, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("no event fired")
	}
}
