package sim

import "testing"

// BenchmarkScheduleStep measures the event calendar's round trip through
// its wheel: schedule one callback for the next cycle, advance one cycle,
// fire it. Steady state reuses one pooled node and allocates nothing.
func BenchmarkScheduleStep(b *testing.B) {
	e := NewEngine(1)
	sink := 0
	fn := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(0, fn)
		e.Step()
	}
	if sink != b.N {
		b.Fatalf("fired %d of %d events", sink, b.N)
	}
}

// BenchmarkScheduleBurst pushes a burst of same-cycle events and drains
// it, the shape the NoC produces under contention (many deliveries landing
// on one cycle). Exercises node-pool growth up to the burst size and reuse
// of the pool across iterations.
func BenchmarkScheduleBurst(b *testing.B) {
	e := NewEngine(1)
	sink := 0
	fn := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			e.Schedule(0, fn)
		}
		e.Step()
	}
	if sink != 64*b.N {
		b.Fatalf("fired %d of %d events", sink, 64*b.N)
	}
}

// BenchmarkScheduleFar measures the far tier: every event is scheduled
// wheelSlots or more cycles ahead, so it goes through the heap, migrates
// into the wheel when its cycle comes within range, and fires from there.
// About 300 events stay pending in the heap.
func BenchmarkScheduleFar(b *testing.B) {
	e := NewEngine(1)
	sink := 0
	fn := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(wheelSlots+Cycle(i&63), fn)
		e.Step()
	}
	if sink == 0 && b.N > 2*wheelSlots {
		b.Fatal("no event fired")
	}
}

// BenchmarkIdleFastForward measures Run crossing a long idle gap: many
// registered-but-sleeping tickers and one far-future event. The cost must
// be independent of the gap length (one jump, not a million empty steps)
// and must not scale with the number of sleeping components.
func BenchmarkIdleFastForward(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 128; i++ {
		h := e.Register(TickFunc(func(Cycle) {}))
		e.Sleep(h)
	}
	fired := false
	fire, done := func() { fired = true }, func() bool { return fired }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fired = false
		e.Schedule(1_000_000, fire)
		if _, err := e.Run(2_000_000, done); err != nil {
			b.Fatal(err)
		}
	}
}
