package sim

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// shardEngine builds an engine with n tickers striped across k shards
// (handle h -> shard h*k/n, contiguous blocks like the mesh row stripes).
func shardEngine(t *testing.T, n, k int, mk func(h int) Ticker) *Engine {
	t.Helper()
	e := NewEngine(1)
	for h := 0; h < n; h++ {
		e.Register(mk(h))
	}
	if err := e.SetShards(k, func(h Handle) int { return int(h) * k / n }); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSetShardsValidation(t *testing.T) {
	e := NewEngine(1)
	e.Register(TickFunc(func(Cycle) {}))
	if err := e.SetShards(2, func(Handle) int { return 7 }); err == nil {
		t.Fatal("out-of-range shardOf must be rejected")
	}
	if err := e.SetShards(2, func(Handle) int { return -1 }); err == nil {
		t.Fatal("negative shardOf must be rejected")
	}
	// n < 2 clears sharding.
	if err := e.SetShards(1, nil); err != nil || e.ShardCount() != 1 {
		t.Fatalf("SetShards(1) = %v, ShardCount %d; want nil, 1", err, e.ShardCount())
	}
}

func TestRegisterAfterSetShardsPanics(t *testing.T) {
	e := NewEngine(1)
	e.Register(TickFunc(func(Cycle) {}))
	e.Register(TickFunc(func(Cycle) {}))
	if err := e.SetShards(2, func(h Handle) int { return int(h) }); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Register after SetShards should panic")
		}
	}()
	e.Register(TickFunc(func(Cycle) {}))
}

func TestScheduleDuringShardedPassPanics(t *testing.T) {
	var e *Engine
	e = shardEngine(t, 2, 2, func(h int) Ticker {
		return TickFunc(func(Cycle) { e.Schedule(0, func() {}) })
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule during a sharded tick pass should panic")
		}
	}()
	e.Step()
}

// TestPassDeferMergesInHandleOrder interleaves shards across the handle
// space (contiguous stripes) and checks the barrier replays deferred
// effects in ascending handle order — the inline sequential order —
// regardless of which shard raised them.
func TestPassDeferMergesInHandleOrder(t *testing.T) {
	const n, k = 12, 3
	var order []int
	var e *Engine
	e = shardEngine(t, n, k, func(h int) Ticker {
		shard := int32(h * k / n)
		return TickFunc(func(Cycle) {
			e.PassDefer(shard, func() { order = append(order, h) })
			// A second defer from the same ticker must stay FIFO after the
			// first at the barrier.
			e.PassDefer(shard, func() { order = append(order, h+100) })
		})
	})
	e.Step()
	if len(order) != 2*n {
		t.Fatalf("replayed %d defers, want %d", len(order), 2*n)
	}
	for h := 0; h < n; h++ {
		if order[2*h] != h || order[2*h+1] != h+100 {
			t.Fatalf("order = %v: position %d should replay ticker %d's two defers in FIFO order", order, 2*h, h)
		}
	}
}

// TestPassScheduleAssignsInlineSequenceNumbers verifies deferred Schedule
// calls replay in merged handle order, so same-cycle events fire exactly
// as if each ticker had called Schedule inline during the sequential pass.
func TestPassScheduleAssignsInlineSequenceNumbers(t *testing.T) {
	const n, k = 8, 2
	var fired []int
	var e *Engine
	e = shardEngine(t, n, k, func(h int) Ticker {
		shard := int32(h * k / n)
		return TickFunc(func(now Cycle) {
			if now == 1 {
				e.PassSchedule(shard, 0, func() { fired = append(fired, h) })
			}
		})
	})
	e.Step() // cycle 1: every ticker schedules
	e.Step() // cycle 2: events fire before ticks, in seq order
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i, h := range fired {
		if h != i {
			t.Fatalf("fired = %v, want ascending handles", fired)
		}
	}
}

func TestShardedWakeSleepBookkeeping(t *testing.T) {
	const n, k = 8, 4
	e := NewEngine(1)
	handles := make([]Handle, n)
	for i := range handles {
		handles[i] = e.Register(TickFunc(func(Cycle) {}))
	}
	e.Sleep(handles[5]) // pre-SetShards sleep must carry over
	if err := e.SetShards(k, func(h Handle) int { return int(h) * k / n }); err != nil {
		t.Fatal(err)
	}
	if got := e.ActiveTickers(); got != n-1 {
		t.Fatalf("ActiveTickers = %d after pre-shard sleep, want %d", got, n-1)
	}
	e.Sleep(handles[0])
	e.Sleep(handles[7])
	if got := e.ActiveTickers(); got != n-3 {
		t.Fatalf("ActiveTickers = %d, want %d", got, n-3)
	}
	e.Wake(handles[5])
	e.Wake(handles[5]) // idempotent
	if got := e.ActiveTickers(); got != n-2 {
		t.Fatalf("ActiveTickers = %d after wake, want %d", got, n-2)
	}
	if e.Awake(handles[0]) || !e.Awake(handles[5]) {
		t.Fatal("per-handle awake state diverged from shard counters")
	}
}

func TestShardedStepSkipsSleepingTickers(t *testing.T) {
	const n, k = 6, 2
	ticks := make([]int, n)
	var e *Engine
	e = shardEngine(t, n, k, func(h int) Ticker {
		return TickFunc(func(Cycle) { ticks[h]++ })
	})
	e.Sleep(Handle(1))
	e.Sleep(Handle(4))
	e.Step()
	e.Step()
	for h, got := range ticks {
		want := 2
		if h == 1 || h == 4 {
			want = 0
		}
		if got != want {
			t.Fatalf("ticker %d ticked %d times, want %d", h, got, want)
		}
	}
}

// TestShardedRunDispatchesWorkers drives a sharded engine through Run with
// enough awake tickers to clear the dispatch threshold, so the worker
// goroutines and the barrier K-way merge execute for real (the race
// detector patrols this test). The deferred log must still come out in
// perfect sequential order every cycle.
func TestShardedRunDispatchesWorkers(t *testing.T) {
	const n, k, cycles = 64, 4, 50
	var order []int
	var e *Engine
	e = shardEngine(t, n, k, func(h int) Ticker {
		shard := int32(h * k / n)
		return TickFunc(func(Cycle) {
			e.PassDefer(shard, func() { order = append(order, h) })
		})
	})
	done := false
	e.Schedule(cycles-1, func() { done = true })
	if _, err := e.Run(10*cycles, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	if e.ShardStats().Dispatches == 0 {
		t.Fatal("no pass was dispatched to workers; the threshold gate is wrong")
	}
	if len(order) != n*cycles {
		t.Fatalf("logged %d defers, want %d", len(order), n*cycles)
	}
	for i, h := range order {
		if h != i%n {
			t.Fatalf("defer %d replayed ticker %d, want %d: parallel pass broke sequential order", i, h, i%n)
		}
	}
}

// waitForGoroutines polls until the goroutine count drops back to base
// (worker exit acknowledgements land just before the goroutines unwind).
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d live, want at most %d — shard workers leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShardWorkersJoinAfterRun(t *testing.T) {
	base := runtime.NumGoroutine()
	var e *Engine
	e = shardEngine(t, 64, 4, func(h int) Ticker { return TickFunc(func(Cycle) {}) })
	done := false
	e.Schedule(20, func() { done = true })
	if _, err := e.Run(1000, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, base)
	// A second Run must restart and re-join the workers cleanly.
	done = false
	e.Schedule(20, func() { done = true })
	if _, err := e.Run(1000, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, base)
}

func TestShardWorkersJoinAfterAbort(t *testing.T) {
	base := runtime.NumGoroutine()
	var e *Engine
	e = shardEngine(t, 64, 4, func(h int) Ticker { return TickFunc(func(Cycle) {}) })
	cause := errors.New("deliberate mid-run abort")
	e.SetAbortCheck(10, func() error {
		if e.Now() >= 30 {
			return cause
		}
		return nil
	})
	_, err := e.Run(100_000, nil)
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v, want *AbortError", err)
	}
	waitForGoroutines(t, base)
}

func TestShardWorkersJoinAfterBudgetExhaustion(t *testing.T) {
	base := runtime.NumGoroutine()
	var e *Engine
	e = shardEngine(t, 64, 4, func(h int) Ticker { return TickFunc(func(Cycle) {}) })
	if _, err := e.Run(50, nil); err == nil {
		t.Fatal("Run should report budget exhaustion")
	}
	waitForGoroutines(t, base)
}

// TestShardedSplitWordMatchesSingleThreaded puts the shard boundary at
// handle 40, inside the first word of the awake bitset, so both shards'
// workers wake and sleep handles of one word concurrently (the race
// detector patrols this test). Each ticker sleeps itself on some cycles
// and wakes its same-shard neighbours; every ticker must tick on exactly
// the cycles the single-threaded engine gives it.
func TestShardedSplitWordMatchesSingleThreaded(t *testing.T) {
	const n, cut, cycles = 128, 40, 200
	shardOf := func(h int) int {
		if h < cut {
			return 0
		}
		return 1
	}
	run := func(shards int) (*Engine, [][]Cycle) {
		e := NewEngine(1)
		log := make([][]Cycle, n)
		for h := 0; h < n; h++ {
			h := h
			e.Register(TickFunc(func(now Cycle) {
				log[h] = append(log[h], now)
				if (h*7+int(now))%5 == 0 {
					e.Sleep(Handle(h))
				}
				for _, nb := range []int{h - 1, h + 1} {
					if nb >= 0 && nb < n && shardOf(nb) == shardOf(h) && (h+int(now))%3 == 0 {
						e.Wake(Handle(nb))
					}
				}
			}))
		}
		if shards > 1 {
			if err := e.SetShards(shards, func(h Handle) int { return shardOf(int(h)) }); err != nil {
				t.Fatal(err)
			}
		}
		e.Run(cycles, nil) // runs to its budget by design
		return e, log
	}
	_, want := run(1)
	e, got := run(2)
	if e.ShardStats().Dispatches == 0 {
		t.Fatal("no pass was dispatched to workers")
	}
	for h := range want {
		if !reflect.DeepEqual(got[h], want[h]) {
			t.Fatalf("ticker %d ticked at %v sharded, %v single-threaded", h, got[h], want[h])
		}
	}
}
