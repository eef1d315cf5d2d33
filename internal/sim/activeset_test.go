package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// tickLog registers n tickers that append the cycle to their own row of
// the returned log and then run act(h, now), if act is non-nil.
func tickLog(e *Engine, n int, act func(h int, now Cycle)) [][]Cycle {
	log := make([][]Cycle, n)
	for h := 0; h < n; h++ {
		h := h
		e.Register(TickFunc(func(now Cycle) {
			log[h] = append(log[h], now)
			if act != nil {
				act(h, now)
			}
		}))
	}
	return log
}

// TestWalkOrderAtWordEdges wakes sleeping tickers on both sides of the
// bitset's word boundaries from lower-index tickers in an earlier word
// and in the same word, and from higher-index tickers in the same word
// and in a later one. A wake from a lower index must tick the target in
// the same pass; a wake from a higher index, in the next one.
func TestWalkOrderAtWordEdges(t *testing.T) {
	const n = 130
	for _, target := range []int{63, 64, 65, 127, 128} {
		for _, waker := range []int{0, target - 1, target + 1, target &^ 63, target | 63, n - 1} {
			if waker == target || waker >= n {
				continue
			}
			e := NewEngine(1)
			log := tickLog(e, n, func(h int, now Cycle) {
				if h == target {
					e.Sleep(Handle(h))
				}
				if h == waker && now == 3 {
					e.Wake(Handle(target))
				}
			})
			for i := 0; i < 5; i++ {
				e.Step()
			}
			want := []Cycle{1, 3}
			if waker > target {
				want = []Cycle{1, 4}
			}
			if !reflect.DeepEqual(log[target], want) {
				t.Errorf("target %d woken by %d at cycle 3: ticked at %v, want %v", target, waker, log[target], want)
			}
			for h := range log {
				if h != target && len(log[h]) != 5 {
					t.Errorf("target %d, waker %d: bystander %d ticked %d times, want 5", target, waker, h, len(log[h]))
				}
			}
		}
	}
}

// TestSleepThenRewakeSamePass puts a ticker to sleep and wakes it again
// within the pass it already ticked in, once from its own Tick and once
// from a higher-index ticker in the same word: it must not tick twice in
// that pass, and must tick in the next one.
func TestSleepThenRewakeSamePass(t *testing.T) {
	for _, waker := range []int{70, 71, 127} {
		e := NewEngine(1)
		log := tickLog(e, 128, func(h int, now Cycle) {
			if now != 2 {
				return
			}
			if h == 70 {
				e.Sleep(Handle(70))
			}
			if h == waker {
				e.Wake(Handle(70))
			}
		})
		for i := 0; i < 3; i++ {
			e.Step()
		}
		if want := []Cycle{1, 2, 3}; !reflect.DeepEqual(log[70], want) {
			t.Errorf("re-woken by %d: ticked at %v, want %v", waker, log[70], want)
		}
	}
}

func TestSetAlwaysTickAfterRegister(t *testing.T) {
	e := NewEngine(1)
	log := tickLog(e, 70, func(h int, now Cycle) { e.Sleep(Handle(h)) })
	e.Step() // every ticker sleeps itself
	if got := e.ActiveTickers(); got != 0 {
		t.Fatalf("ActiveTickers = %d after every ticker slept, want 0", got)
	}
	e.SetAlwaysTick(true)
	if got := e.ActiveTickers(); got != 70 {
		t.Fatalf("ActiveTickers = %d after SetAlwaysTick, want 70", got)
	}
	e.Step()
	e.Step()
	for h, ticks := range log {
		if want := []Cycle{1, 2, 3}; !reflect.DeepEqual(ticks, want) {
			t.Fatalf("ticker %d ticked at %v, want %v", h, ticks, want)
		}
	}
}

// TestTickerCounts covers a single ticker, exactly one full word and one
// ticker past it: all tick while awake, and once all sleep the engine is
// idle and Run fast-forwards.
func TestTickerCounts(t *testing.T) {
	for _, n := range []int{1, 64, 65} {
		e := NewEngine(1)
		log := tickLog(e, n, func(h int, now Cycle) {
			if now == 2 {
				e.Sleep(Handle(h))
			}
		})
		if got := e.ActiveTickers(); got != n {
			t.Fatalf("n=%d: ActiveTickers = %d, want %d", n, got, n)
		}
		if _, err := e.Run(100, nil); err == nil {
			t.Fatalf("n=%d: Run should exhaust its budget", n)
		}
		for h, ticks := range log {
			if want := []Cycle{1, 2}; !reflect.DeepEqual(ticks, want) {
				t.Fatalf("n=%d: ticker %d ticked at %v, want %v", n, h, ticks, want)
			}
		}
		if st := e.ExecStats(); st.Passes != 3 || st.FastForwarded != 97 || st.Ticks != uint64(2*n) {
			t.Fatalf("n=%d: ExecStats = %+v, want 3 passes, 97 fast-forwarded, %d ticks", n, st, 2*n)
		}
	}
}

func TestStepAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	for h := 0; h < 130; h++ {
		e.Register(TickFunc(func(Cycle) { ticks++ }))
	}
	for h := 0; h < 130; h += 3 {
		e.Sleep(Handle(h))
	}
	if allocs := testing.AllocsPerRun(100, e.Step); allocs != 0 {
		t.Fatalf("Step allocated %.1f times per call, want 0", allocs)
	}
}

// refEngine is the tick pass the bitset walk replaced: one awake flag per
// ticker, tested in registration order as the scan reaches it.
type refEngine struct {
	now   Cycle
	awake []bool
	ticks []func(now Cycle)
}

func (r *refEngine) step() {
	r.now++
	for h, tick := range r.ticks {
		if r.awake[h] {
			tick(r.now)
		}
	}
}

// TestWalkMatchesFlagScan drives the bitset engine and the flag-scan
// reference through the same random wake/sleep script and compares every
// ticker's tick cycles.
func TestWalkMatchesFlagScan(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130, 200} {
		for seed := int64(1); seed <= 5; seed++ {
			// script[c][h] is what ticker h does when ticked at cycle c:
			// a handle to wake, or -1 to sleep itself.
			rng := rand.New(rand.NewSource(seed))
			const cycles = 40
			script := make([][]int, cycles+1)
			for c := range script {
				script[c] = make([]int, n)
				for h := range script[c] {
					script[c][h] = rng.Intn(n+n/2+1) - 1
					if script[c][h] >= n {
						script[c][h] = -1
					}
				}
			}
			ref := &refEngine{awake: make([]bool, n)}
			refLog := make([][]Cycle, n)
			for h := 0; h < n; h++ {
				h := h
				ref.awake[h] = true
				ref.ticks = append(ref.ticks, func(now Cycle) {
					refLog[h] = append(refLog[h], now)
					if a := script[now][h]; a < 0 {
						ref.awake[h] = false
					} else {
						ref.awake[a] = true
					}
				})
			}
			e := NewEngine(1)
			log := tickLog(e, n, func(h int, now Cycle) {
				if a := script[now][h]; a < 0 {
					e.Sleep(Handle(h))
				} else {
					e.Wake(Handle(a))
				}
			})
			for c := 0; c < cycles; c++ {
				ref.step()
				e.Step()
			}
			if !reflect.DeepEqual(log, refLog) {
				t.Fatalf("n=%d seed=%d: bitset walk diverged from the flag scan", n, seed)
			}
		}
	}
}
