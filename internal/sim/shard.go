// Sharded tick-pass execution: conservative-lookahead parallelism inside
// one simulation.
//
// The engine stays single-threaded for everything that carries global
// ordering — the clock, the event heap, the RNG, Schedule sequence
// numbers. Only the per-cycle tick pass fans out: tickers are partitioned
// into shards, each shard ticks its components (in ascending handle
// order) on its own goroutine, and a barrier at the end of the pass
// replays every cross-shard side effect in the exact order the
// single-threaded engine would have produced.
//
// The lookahead bound making this safe is the mesh's minimum cross-shard
// link latency: one cycle. Every cross-shard handoff in this codebase is
// stamped at now+1 (router link traversal, credit return), so work done
// by shard A during cycle T can only become visible to shard B at T+1 —
// after the barrier. With a one-cycle lookahead the conservative window
// degenerates into cycle-lockstep: tick all shards for cycle T in
// parallel, barrier, advance to T+1. Correctness then rests on three
// contracts, enforced by the users of this API (internal/noc):
//
//  1. During a pass, a shard mutates only its own components' state.
//     Anything aimed at another shard — packet arrivals, credits, wakes —
//     is staged and applied at the barrier (SetPassFlush).
//  2. Side effects on shared single-threaded state (trace buffers,
//     histograms, the event heap, global ID counters) are deferred with
//     PassDefer/PassSchedule. The barrier replays them merged across
//     shards by the handle of the ticker that raised them, FIFO within a
//     ticker — exactly the order inline execution produces, because the
//     sequential pass visits tickers in ascending handle order.
//  3. Pass-time Wake/Sleep calls touch only the caller's own shard
//     (cross-shard wakes ride on staged work instead). Two shards'
//     handles may still share a word of the awake bitset, so a sharded
//     engine updates the words with compare-and-swap and the pass reads
//     them with atomic loads.
//
// Everything outside the pass — events, Run bookkeeping, the barrier
// itself — runs on the caller's goroutine, untouched.
package sim

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// taggedFn is a deferred side effect tagged with the handle of the ticker
// that raised it, for cross-shard order-restoring merge at the barrier.
type taggedFn struct {
	tag Handle
	fn  func()
}

// taggedSched is a deferred Schedule call. Replaying these in merged tag
// order assigns the same sequence numbers the inline calls would have.
type taggedSched struct {
	tag   Handle
	delay Cycle
	fn    func()
}

// passState is one shard's scratch state for the current pass. Padded so
// concurrently-appending shards do not false-share cache lines.
type passState struct {
	cur    Handle // handle of the ticker currently being ticked
	ticks  uint64 // Tick calls this pass, folded into ExecStats at the barrier
	defers []taggedFn
	scheds []taggedSched
	_      [64]byte
}

// ShardStats exposes host-side sharding telemetry. Dispatches and
// InlinePasses are deterministic for a fixed configuration and machine
// core count; BarrierWaitNs is wall-clock and inherently nondeterministic
// (it never feeds back into simulation state).
type ShardStats struct {
	Dispatches    uint64 // passes fanned out to worker goroutines
	InlinePasses  uint64 // passes run inline (too little work to dispatch)
	BarrierWaitNs uint64 // main-goroutine wall time blocked on workers
}

// shardRT is the engine's sharding runtime, nil on unsharded engines.
type shardRT struct {
	n int
	// masks[s] has the same shape as the engine's awake bitset, with the
	// bits of shard s's handles set: a shard walks awake&masks[s].
	masks  [][]uint64
	pass   []passState
	inPass bool
	flush  func()

	// minDispatch gates worker fan-out: passes with fewer awake tickers
	// run inline, since dispatch overhead would dwarf the work.
	minDispatch int

	started  bool
	start    []chan struct{} // one per worker (shards 1..n-1)
	done     chan struct{}
	quit     chan struct{}
	nWorkers int
	exited   chan struct{} // worker exit acknowledgements for join

	stats    ShardStats
	mergeIdx []int // reused scratch for the barrier K-way merge
}

// shardDispatchFactor sets minDispatch = factor * shards: a pass is worth
// dispatching only when each worker would average this many awake tickers.
const shardDispatchFactor = 8

// SetShards partitions the engine's tickers into n shards for parallel
// tick-pass execution. shardOf maps every registered handle to its shard
// in [0, n). n < 2 clears sharding (the engine runs exactly as before).
// Must be called after all Register calls and outside Run.
func (e *Engine) SetShards(n int, shardOf func(Handle) int) error {
	if e.sh != nil && e.sh.inPass {
		panic("sim: SetShards during tick pass")
	}
	if n < 2 {
		e.sh = nil
		return nil
	}
	sh := &shardRT{
		n:           n,
		masks:       make([][]uint64, n),
		pass:        make([]passState, n),
		minDispatch: shardDispatchFactor * n,
		done:        make(chan struct{}, n-1),
		mergeIdx:    make([]int, n),
	}
	for s := range sh.masks {
		sh.masks[s] = make([]uint64, len(e.awake))
	}
	for h := range e.tickers {
		s := shardOf(Handle(h))
		if s < 0 || s >= n {
			return fmt.Errorf("sim: shardOf(%d) = %d, want [0,%d)", h, s, n)
		}
		sh.masks[s][h>>6] |= 1 << (uint(h) & 63)
	}
	sh.start = make([]chan struct{}, n-1)
	for i := range sh.start {
		sh.start[i] = make(chan struct{}, 1)
	}
	e.sh = sh
	return nil
}

// ShardCount reports the number of shards (1 when unsharded).
func (e *Engine) ShardCount() int {
	if e.sh == nil {
		return 1
	}
	return e.sh.n
}

// TickerCount reports the number of registered tickers.
func (e *Engine) TickerCount() int { return len(e.tickers) }

// SetPassFlush installs the barrier's first phase: fn runs after all
// shards finish ticking a cycle and before deferred side effects replay.
// The network uses it to apply staged cross-shard arrivals and credits.
func (e *Engine) SetPassFlush(fn func()) {
	if e.sh == nil {
		panic("sim: SetPassFlush without SetShards")
	}
	e.sh.flush = fn
}

// InPass reports whether a sharded tick pass is executing. Components use
// it to route cross-shard side effects through PassDefer/PassSchedule.
// Always false on an unsharded engine, so single-shard runs take zero new
// branches with observable effects.
func (e *Engine) InPass() bool { return e.sh != nil && e.sh.inPass }

// PassDefer defers fn to the barrier of the current pass. shard must be
// the calling ticker's own shard. Replay order across shards is by the
// raising ticker's handle (FIFO within one ticker) — the inline order.
func (e *Engine) PassDefer(shard int32, fn func()) {
	ps := &e.sh.pass[shard]
	ps.defers = append(ps.defers, taggedFn{tag: ps.cur, fn: fn})
}

// PassSchedule is Schedule for pass-time callers: the actual Schedule call
// replays at the barrier in merged tag order, so event sequence numbers
// come out identical to inline execution.
func (e *Engine) PassSchedule(shard int32, delay Cycle, fn func()) {
	ps := &e.sh.pass[shard]
	ps.scheds = append(ps.scheds, taggedSched{tag: ps.cur, delay: delay, fn: fn})
}

// ShardStats returns a copy of the sharding telemetry (zero when
// unsharded).
func (e *Engine) ShardStats() ShardStats {
	if e.sh == nil {
		return ShardStats{}
	}
	return e.sh.stats
}

// atomicOr sets bit in *w. Shards whose handles share a word may wake
// concurrently, hence the compare-and-swap loop (atomic.OrUint64 needs
// go 1.23).
func atomicOr(w *uint64, bit uint64) {
	for {
		old := atomic.LoadUint64(w)
		if old&bit != 0 || atomic.CompareAndSwapUint64(w, old, old|bit) {
			return
		}
	}
}

// atomicAndNot clears bit in *w; the Sleep counterpart of atomicOr.
func atomicAndNot(w *uint64, bit uint64) {
	for {
		old := atomic.LoadUint64(w)
		if old&bit == 0 || atomic.CompareAndSwapUint64(w, old, old&^bit) {
			return
		}
	}
}

// runShardPass ticks shard s's awake components in ascending handle order
// for the current cycle, under the walk rule of Step restricted to the
// shard's own bits. Runs on a worker goroutine (or inline on the main
// goroutine for shard 0 and undispatched passes).
func (e *Engine) runShardPass(s int) {
	ps := &e.sh.pass[s]
	now, tickers, awake := e.now, e.tickers, e.awake
	for wi, m := range e.sh.masks[s] {
		if m == 0 {
			continue
		}
		for w := atomic.LoadUint64(&awake[wi]) & m; w != 0; {
			b := uint(bits.TrailingZeros64(w))
			h := Handle(wi<<6 | int(b))
			ps.cur = h
			tickers[h].Tick(now)
			ps.ticks++
			w = atomic.LoadUint64(&awake[wi]) & m &^ (1<<b<<1 - 1)
		}
	}
}

// shardedPass executes one cycle's tick pass across all shards, then runs
// the barrier. Dispatch to workers only pays off when enough tickers are
// awake; otherwise the shards run inline, in order, on this goroutine —
// the two paths are semantically identical because staging decisions are
// static per component, not per execution mode.
func (e *Engine) shardedPass() {
	sh := e.sh
	sh.inPass = true
	if sh.started && e.ActiveTickers() >= sh.minDispatch {
		sh.stats.Dispatches++
		for i := range sh.start {
			sh.start[i] <- struct{}{}
		}
		e.runShardPass(0)
		t0 := time.Now()
		for i := 0; i < sh.n-1; i++ {
			<-sh.done
		}
		sh.stats.BarrierWaitNs += uint64(time.Since(t0))
	} else {
		sh.stats.InlinePasses++
		for s := 0; s < sh.n; s++ {
			e.runShardPass(s)
		}
	}
	sh.inPass = false
	e.applyBarrier()
}

// applyBarrier replays the pass's cross-shard effects in inline order:
// staged network traffic first (the flush hook), then deferred side
// effects, then deferred Schedule calls, each K-way merged by raising
// ticker handle. Shards partition the handle space, so tags never collide
// across shards and each shard's lists are already tag-sorted.
func (e *Engine) applyBarrier() {
	sh := e.sh
	if sh.flush != nil {
		sh.flush()
	}
	for s := range sh.mergeIdx {
		sh.mergeIdx[s] = 0
	}
	for {
		best := -1
		var bestTag Handle
		for s := 0; s < sh.n; s++ {
			i := sh.mergeIdx[s]
			if i < len(sh.pass[s].defers) {
				if t := sh.pass[s].defers[i].tag; best == -1 || t < bestTag {
					best, bestTag = s, t
				}
			}
		}
		if best == -1 {
			break
		}
		fn := sh.pass[best].defers[sh.mergeIdx[best]].fn
		sh.mergeIdx[best]++
		fn()
	}
	for s := range sh.mergeIdx {
		sh.mergeIdx[s] = 0
	}
	for {
		best := -1
		var bestTag Handle
		for s := 0; s < sh.n; s++ {
			i := sh.mergeIdx[s]
			if i < len(sh.pass[s].scheds) {
				if t := sh.pass[s].scheds[i].tag; best == -1 || t < bestTag {
					best, bestTag = s, t
				}
			}
		}
		if best == -1 {
			break
		}
		sc := sh.pass[best].scheds[sh.mergeIdx[best]]
		sh.mergeIdx[best]++
		e.Schedule(sc.delay, sc.fn)
	}
	for s := range sh.pass {
		ps := &sh.pass[s]
		e.stats.Ticks += ps.ticks
		ps.ticks = 0
		for i := range ps.defers {
			ps.defers[i] = taggedFn{}
		}
		ps.defers = ps.defers[:0]
		for i := range ps.scheds {
			ps.scheds[i] = taggedSched{}
		}
		ps.scheds = ps.scheds[:0]
	}
}

// startShardWorkers launches the worker goroutines (shards 1..n-1; shard
// 0 always runs on the caller's goroutine). Returns whether it started
// them, so Run can pair the call with stopShardWorkers.
func (e *Engine) startShardWorkers() bool {
	sh := e.sh
	if sh == nil || sh.started || sh.n < 2 {
		return false
	}
	sh.quit = make(chan struct{})
	sh.exited = make(chan struct{}, sh.n-1)
	sh.nWorkers = sh.n - 1
	for i := 1; i < sh.n; i++ {
		s := i
		go func() {
			defer func() { sh.exited <- struct{}{} }()
			for {
				select {
				case <-sh.quit:
					return
				case <-sh.start[s-1]:
					e.runShardPass(s)
					sh.done <- struct{}{}
				}
			}
		}()
	}
	sh.started = true
	return true
}

// stopShardWorkers shuts the workers down and joins them. Called with no
// pass in flight (every dispatched pass fully drains at its barrier), so
// each worker is parked in its select and exits promptly — shard teardown
// leaks no goroutines even when Run aborts, stalls out, or times out.
func (e *Engine) stopShardWorkers() {
	sh := e.sh
	if sh == nil || !sh.started {
		return
	}
	close(sh.quit)
	for i := 0; i < sh.nWorkers; i++ {
		<-sh.exited
	}
	sh.started = false
}
