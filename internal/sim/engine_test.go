package sim

import (
	"errors"
	"testing"
)

// errAbortTest is the sentinel cause the abort-check tests report.
var errAbortTest = errors.New("abort test cause")

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
}

func TestStepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	for i := 1; i <= 5; i++ {
		e.Step()
		if e.Now() != Cycle(i) {
			t.Fatalf("after %d steps Now() = %d", i, e.Now())
		}
	}
}

func TestTickersRunEveryCycleInOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Register(TickFunc(func(Cycle) { order = append(order, 1) }))
	e.Register(TickFunc(func(Cycle) { order = append(order, 2) }))
	e.Step()
	e.Step()
	want := []int{1, 2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleFiresAtRequestedCycle(t *testing.T) {
	e := NewEngine(1)
	var fired Cycle
	e.Schedule(4, func() { fired = e.Now() })
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if fired != 5 {
		t.Fatalf("fired at %d, want 5 (delay 4 from cycle 0 fires at start of cycle 5)", fired)
	}
}

func TestScheduleZeroFiresNextCycle(t *testing.T) {
	e := NewEngine(1)
	var fired Cycle
	e.Register(TickFunc(func(now Cycle) {
		if now == 3 {
			e.Schedule(0, func() { fired = e.Now() })
		}
	}))
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if fired != 4 {
		t.Fatalf("fired at %d, want 4", fired)
	}
}

func TestScheduleAtPastFiresNextCycle(t *testing.T) {
	e := NewEngine(1)
	e.Step()
	e.Step()
	var fired Cycle
	e.ScheduleAt(1, func() { fired = e.Now() })
	e.Step()
	if fired != 3 {
		t.Fatalf("fired at %d, want 3", fired)
	}
}

func TestSameCycleEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 16; i++ {
		i := i
		e.Schedule(2, func() { order = append(order, i) })
	}
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if len(order) != 16 {
		t.Fatalf("fired %d events, want 16", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestEventsBeforeTickers(t *testing.T) {
	e := NewEngine(1)
	var seen []string
	e.Register(TickFunc(func(now Cycle) {
		if now == 2 {
			seen = append(seen, "tick")
		}
	}))
	e.Schedule(1, func() { seen = append(seen, "event") }) // fires cycle 2
	e.Step()
	e.Step()
	if len(seen) != 2 || seen[0] != "event" || seen[1] != "tick" {
		t.Fatalf("seen = %v, want [event tick]", seen)
	}
}

func TestRunStopsOnCondition(t *testing.T) {
	// cond must be driven by simulation state (the engine only evaluates
	// it at cycles where events or ticks run), so the flag flips via a
	// scheduled event rather than by inspecting Now().
	e := NewEngine(1)
	done := false
	e.Schedule(6, func() { done = true }) // fires at cycle 7
	n, err := e.Run(100, func() bool { return done })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 7 || e.Now() != 7 {
		t.Fatalf("ran %d cycles to %d, want 7", n, e.Now())
	}
}

func TestRunBudgetExhausted(t *testing.T) {
	e := NewEngine(1)
	if _, err := e.Run(10, func() bool { return false }); err == nil {
		t.Fatal("Run should report budget exhaustion")
	}
}

func TestStopEndsRun(t *testing.T) {
	e := NewEngine(1)
	e.Register(TickFunc(func(now Cycle) {
		if now == 3 {
			e.Stop()
		}
	}))
	n, err := e.Run(100, nil)
	if err != nil || n != 3 {
		t.Fatalf("ran %d cycles, err=%v; want 3, nil", n, err)
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed must give identical random streams")
		}
	}
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register(nil) should panic")
		}
	}()
	NewEngine(1).Register(nil)
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) should panic")
		}
	}()
	NewEngine(1).Schedule(0, nil)
}

// countingTicker records the cycles it was ticked and can put itself to
// sleep after each tick.
type countingTicker struct {
	e         *Engine
	h         Handle
	ticks     []Cycle
	sleepEach bool
}

func (c *countingTicker) Tick(now Cycle) {
	c.ticks = append(c.ticks, now)
	if c.sleepEach {
		c.e.Sleep(c.h)
	}
}

func newCounting(e *Engine, sleepEach bool) *countingTicker {
	c := &countingTicker{e: e, sleepEach: sleepEach}
	c.h = e.Register(c)
	return c
}

func TestSleepDropsTickerUntilWake(t *testing.T) {
	e := NewEngine(1)
	c := newCounting(e, true)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if len(c.ticks) != 1 || c.ticks[0] != 1 {
		t.Fatalf("slept ticker ran at %v, want [1]", c.ticks)
	}
	if e.Awake(c.h) || e.ActiveTickers() != 0 {
		t.Fatalf("component still counted awake after Sleep")
	}
	// Re-wake: the component must tick again from the next cycle, then
	// drop out again after its one tick.
	e.Wake(c.h)
	for i := 0; i < 3; i++ {
		e.Step()
	}
	if len(c.ticks) != 2 || c.ticks[1] != 6 {
		t.Fatalf("re-woken ticker ran at %v, want [1 6]", c.ticks)
	}
}

func TestWakeFromEventCallbackTicksSameCycle(t *testing.T) {
	// Events fire before tickers, so a wake issued from an event callback
	// must tick the component in that same cycle — exactly when its first
	// productive tick would have landed under always-tick.
	e := NewEngine(1)
	c := newCounting(e, true)
	e.Schedule(9, func() { e.Wake(c.h) }) // fires at cycle 10
	for i := 0; i < 12; i++ {
		e.Step()
	}
	if len(c.ticks) != 2 || c.ticks[0] != 1 || c.ticks[1] != 10 {
		t.Fatalf("ticks = %v, want [1 10]", c.ticks)
	}
}

func TestRunFastForwardsIdleGapsToNextEvent(t *testing.T) {
	e := NewEngine(1)
	c := newCounting(e, true)
	fired := false
	e.Schedule(999, func() { fired = true }) // fires at cycle 1000
	n, err := e.Run(5000, func() bool { return fired })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 1000 || e.Now() != 1000 {
		t.Fatalf("ran %d cycles to %d, want exactly 1000", n, e.Now())
	}
	if len(c.ticks) != 1 {
		t.Fatalf("idle ticker ran %d times during fast-forward, want 1", len(c.ticks))
	}
}

func TestScheduleDuringFastForward(t *testing.T) {
	// An event fired at a fast-forwarded cycle schedules a follow-up; the
	// follow-up must fire at its exact cycle, not be skipped by a stale
	// jump target.
	e := NewEngine(1)
	var fired []Cycle
	done := false
	e.Schedule(99, func() {
		fired = append(fired, e.Now())
		e.Schedule(49, func() {
			fired = append(fired, e.Now())
			done = true
		})
	})
	n, err := e.Run(10_000, func() bool { return done })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 150 || len(fired) != 2 || fired[0] != 100 || fired[1] != 150 {
		t.Fatalf("ran %d cycles, events at %v; want 150 cycles, events [100 150]", n, fired)
	}
}

func TestStopDuringFastForward(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(499, func() { e.Stop() }) // fires at cycle 500
	n, err := e.Run(10_000, nil)
	if err != nil || n != 500 {
		t.Fatalf("ran %d cycles, err=%v; want 500, nil", n, err)
	}
}

func TestFastForwardRespectsCycleBudget(t *testing.T) {
	// A fully idle engine (no events, empty tick set) must exhaust the
	// budget at exactly the same cycle as per-cycle stepping would.
	e := NewEngine(1)
	newCounting(e, true)
	n, err := e.Run(100, nil)
	if err == nil {
		t.Fatal("Run should report budget exhaustion")
	}
	if n != 100 || e.Now() != 100 {
		t.Fatalf("budget exhausted after %d cycles at %d, want 100", n, e.Now())
	}
	// An event beyond the budget boundary must not be reached.
	fired := false
	e.Schedule(500, func() { fired = true })
	n, err = e.Run(100, nil)
	if err == nil || n != 100 || fired {
		t.Fatalf("ran %d cycles (err=%v, fired=%v); want budget error at 100 with event unfired", n, err, fired)
	}
}

func TestAlwaysTickDisablesSleepAndFastForward(t *testing.T) {
	e := NewEngine(1)
	e.SetAlwaysTick(true)
	c := newCounting(e, true) // tries to sleep every tick
	fired := false
	e.Schedule(49, func() { fired = true }) // fires at cycle 50
	n, err := e.Run(1000, func() bool { return fired })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 50 {
		t.Fatalf("ran %d cycles, want 50", n)
	}
	if len(c.ticks) != 50 {
		t.Fatalf("always-tick component ran %d times, want every one of 50 cycles", len(c.ticks))
	}
}

func TestWakeFromLowerIndexTicksSameCycle(t *testing.T) {
	// Component A (registered first) wakes sleeping component B mid-pass:
	// B must tick in the same cycle, matching always-tick behaviour where
	// B's tick runs after A's every cycle.
	e := NewEngine(1)
	b := &countingTicker{e: e, sleepEach: true}
	var aTicks []Cycle
	e.Register(TickFunc(func(now Cycle) {
		aTicks = append(aTicks, now)
		if now == 3 {
			e.Wake(b.h)
		}
	}))
	b.h = e.Register(b)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if len(b.ticks) != 2 || b.ticks[0] != 1 || b.ticks[1] != 3 {
		t.Fatalf("b ticks = %v, want [1 3] (same-cycle wake from lower index)", b.ticks)
	}
}

func TestAbortCheckStopsRunWithAbortError(t *testing.T) {
	e := NewEngine(1)
	e.Register(TickFunc(func(Cycle) {}))
	cause := errAbortTest
	calls := 0
	e.SetAbortCheck(100, func() error {
		calls++
		if e.Now() >= 250 {
			return cause
		}
		return nil
	})
	_, err := e.Run(10_000, nil)
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v, want *AbortError", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("AbortError does not unwrap to its cause: %v", err)
	}
	// Checks run every 100 cycles: the trip lands on the first check at or
	// after cycle 250, i.e. cycle 300.
	if abort.Now != 300 || e.Now() != 300 {
		t.Fatalf("aborted at cycle %d (engine at %d), want 300", abort.Now, e.Now())
	}
	if calls != 3 {
		t.Fatalf("abort check ran %d times over 300 cycles at every=100, want 3", calls)
	}
}

func TestAbortCheckCoarseCadence(t *testing.T) {
	e := NewEngine(1)
	e.Register(TickFunc(func(Cycle) {}))
	calls := 0
	e.SetAbortCheck(1000, func() error { calls++; return nil })
	if _, err := e.Run(5000, func() bool { return e.Now() == 5000 }); err != nil {
		t.Fatal(err)
	}
	// Checks are due at 1000..5000, but Run's condition exits the loop at
	// cycle 5000 before that cycle's check: four invocations total.
	if calls != 4 {
		t.Fatalf("abort check ran %d times over 5000 cycles at every=1000, want 4", calls)
	}
}

func TestAbortCheckFiresAcrossFastForward(t *testing.T) {
	// A fully quiescent engine fast-forwards over the check boundary in one
	// jump; the abort check must still run when the clock lands past it.
	e := NewEngine(1)
	h := e.Register(TickFunc(func(Cycle) {}))
	e.Sleep(h)
	e.Schedule(9_999, func() {})
	aborted := false
	e.SetAbortCheck(500, func() error {
		aborted = true
		return errAbortTest
	})
	_, err := e.Run(100_000, nil)
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v, want *AbortError", err)
	}
	if !aborted {
		t.Fatal("abort check never ran under fast-forward")
	}
	// The idle jump goes straight to the scheduled event's cycle; the check
	// fires there, not thousands of cycles later.
	if e.Now() > 10_000 {
		t.Fatalf("abort landed at cycle %d, want at most the event cycle 10000", e.Now())
	}
}

func TestAbortCheckRemovable(t *testing.T) {
	e := NewEngine(1)
	e.Register(TickFunc(func(Cycle) {}))
	e.SetAbortCheck(10, func() error { return errAbortTest })
	e.SetAbortCheck(10, nil)
	if _, err := e.Run(100, func() bool { return e.Now() == 100 }); err != nil {
		t.Fatalf("removed abort check still fired: %v", err)
	}
}
