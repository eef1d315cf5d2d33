package main

import (
	"errors"
	"fmt"
	"runtime"

	"inpg"
	"inpg/internal/analytic"
	"inpg/internal/coherence"
	"inpg/internal/noc"
	"inpg/internal/sim"
)

// The layer probes drive one layer each through its exported functions
// only, and run in the traced run only. Each repeats its measurement
// probeReps times and keeps the median, and each times with the process
// CPU clock, like the end-to-end metrics.
const probeReps = 5

// repeat runs fn probeReps times and returns the median of its results.
func repeat(fn func() (float64, error)) (float64, error) {
	v := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		settle()
		x, err := fn()
		if err != nil {
			return 0, err
		}
		v = append(v, x)
	}
	return median(v), nil
}

// runCycles runs eng for exactly n cycles; running out of budget is the
// expected way out.
func runCycles(eng *sim.Engine, n sim.Cycle) error {
	_, err := eng.Run(n, nil)
	var budget *sim.BudgetError
	if errors.As(err, &budget) {
		return nil
	}
	if err == nil {
		return fmt.Errorf("engine stopped before %d cycles", n)
	}
	return err
}

// stepNs is the engine's per-cycle cost with n no-op tickers of which one
// in `every` stays awake (every = 1: all awake).
func stepNs(n, every int, cycles sim.Cycle) (float64, error) {
	return repeat(func() (float64, error) {
		eng := sim.NewEngine(1)
		noop := sim.TickFunc(func(sim.Cycle) {})
		for i := 0; i < n; i++ {
			h := eng.Register(noop)
			if i%every != 0 {
				eng.Sleep(h)
			}
		}
		sw := startWatch()
		if err := runCycles(eng, cycles); err != nil {
			return 0, err
		}
		return sw.elapsed().CPU * 1e9 / float64(cycles), nil
	})
}

// eventNs is the cost of one scheduled event: 64 self-rescheduling
// chains with delays 0..7 on an engine with no tickers, so every cycle is
// an event cycle or a fast-forward landing on one.
func eventNs(events int) (float64, error) {
	return repeat(func() (float64, error) {
		eng := sim.NewEngine(1)
		fired := 0
		for c := 0; c < 64; c++ {
			delay := sim.Cycle(c % 8)
			var chain func()
			chain = func() {
				fired++
				if fired < events {
					eng.Schedule(delay, chain)
				}
			}
			eng.Schedule(delay, chain)
		}
		sw := startWatch()
		if _, err := eng.Run(sim.Cycle(events)*8, func() bool { return fired >= events }); err != nil {
			return 0, err
		}
		return sw.elapsed().CPU * 1e9 / float64(fired), nil
	})
}

// fastForwardNs is the cost of one idle jump: an 8x8-sized engine (128
// tickers) with every ticker asleep and one event every 1000 cycles.
func fastForwardNs(jumps int) (float64, error) {
	return repeat(func() (float64, error) {
		eng := sim.NewEngine(1)
		noop := sim.TickFunc(func(sim.Cycle) {})
		for i := 0; i < 128; i++ {
			eng.Sleep(eng.Register(noop))
		}
		fired := 0
		var tick func()
		tick = func() {
			fired++
			eng.Schedule(999, tick)
		}
		eng.Schedule(999, tick)
		sw := startWatch()
		if _, err := eng.Run(sim.Cycle(jumps)*1000+1, func() bool { return fired >= jumps }); err != nil {
			return 0, err
		}
		return sw.elapsed().CPU * 1e9 / float64(fired), nil
	})
}

// nocNsPerFlit is the network's CPU cost per switched flit under uniform
// random traffic at a fixed sub-saturation rate.
func nocNsPerFlit(dim int, measure sim.Cycle) (float64, error) {
	return repeat(func() (float64, error) {
		eng := sim.NewEngine(7)
		cfg := noc.DefaultConfig()
		cfg.Mesh = noc.Mesh{Width: dim, Height: dim}
		n, err := noc.New(eng, cfg)
		if err != nil {
			return 0, err
		}
		sw := startWatch()
		if _, err := noc.RunTraffic(eng, n, noc.TrafficConfig{
			Pattern: noc.UniformRandom, InjectionRate: 0.02, PacketFlits: 4,
			WarmupCycles: 200, MeasureCycles: measure, Seed: 7,
		}); err != nil {
			return 0, err
		}
		c := sw.elapsed()
		var flits uint64
		for id := 0; id < dim*dim; id++ {
			flits += n.Router(noc.NodeID(id)).Stats.FlitsSwitched
		}
		if flits == 0 {
			return 0, fmt.Errorf("noc probe %dx%d switched no flits", dim, dim)
		}
		return c.CPU * 1e9 / float64(flits), nil
	})
}

// coherenceNsPerTxn is the coherence fabric's CPU cost per directory
// transaction on the 8x8 Table 1 fabric. contended: every L1 issues
// Atomic swaps to one line, one after another; private: every L1 loads a
// stream of lines no other core touches, so each load is a fresh miss.
func coherenceNsPerTxn(contended bool, opsPerCore int) (float64, error) {
	return repeat(func() (float64, error) {
		eng := sim.NewEngine(3)
		f, err := coherence.NewFabric(eng, coherence.DefaultFabricConfig())
		if err != nil {
			return 0, err
		}
		nodes := len(f.L1s)
		hot := f.Homes.AddrForHome(noc.NodeID(nodes/2), 0)
		done := 0
		for id, l1 := range f.L1s {
			k := 0
			var next func()
			next = func() {
				if k == opsPerCore {
					done++
					return
				}
				k++
				if contended {
					l1.Atomic(hot, coherence.Swap, uint64(id+1), 0, 0, func(uint64) { next() })
					return
				}
				addr := f.Homes.AddrForHome(noc.NodeID((id+k)%nodes), 1+id*opsPerCore+k)
				l1.Load(addr, false, 0, func(uint64) { next() })
			}
			next()
		}
		sw := startWatch()
		if _, err := eng.Run(50_000_000, func() bool { return done == nodes }); err != nil {
			return 0, err
		}
		c := sw.elapsed()
		var txns uint64
		for _, d := range f.Dirs {
			txns += d.Stats.TxnStarted
		}
		if txns == 0 {
			return 0, fmt.Errorf("coherence probe started no transactions")
		}
		return c.CPU * 1e9 / float64(txns), nil
	})
}

// buildCost is inpg.New's CPU time in ms and its allocation in MB for
// the default platform on a dim x dim mesh.
func buildCost(dim int) (ms, mb float64, err error) {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = dim, dim
	var allocs []float64
	ms, err = repeat(func() (float64, error) {
		before := memStats()
		sw := startWatch()
		sys, err := inpg.New(cfg)
		c := sw.elapsed()
		allocs = append(allocs, float64(memStats().TotalAlloc-before.TotalAlloc)/1e6)
		runtime.KeepAlive(sys)
		return c.CPU * 1e3, err
	})
	return ms, median(allocs), err
}

// analyticUsPerCell is analytic.For's CPU cost per call over cfgs.
func analyticUsPerCell(cfgs []inpg.Config, rounds int) (float64, error) {
	var sink float64
	us, err := repeat(func() (float64, error) {
		sw := startWatch()
		for r := 0; r < rounds; r++ {
			for _, cfg := range cfgs {
				sink += analytic.For(cfg).CSTime()
			}
		}
		return sw.elapsed().CPU * 1e6 / float64(rounds*len(cfgs)), nil
	})
	if sink < 0 {
		return 0, fmt.Errorf("analytic model returned a negative CS time")
	}
	return us, err
}

// layerProbes runs every probe and returns its per-layer metrics. The
// sizes keep each probe's measurement near 50 ms on the reference host;
// tiny divides them by 50 for the harness tests.
func layerProbes(tr *tracer, tiny bool) (map[string]float64, error) {
	k := 1
	if tiny {
		k = 50
	}
	out := make(map[string]float64)
	type probe struct {
		name string
		fn   func() (float64, error)
	}
	sweepCfgs := sweepCells(1, false)
	var buildMB float64
	probes := []probe{
		{"sim.step_ns.dense", func() (float64, error) { return stepNs(128, 1, sim.Cycle(75_000/k)) }},
		{"sim.step_ns.sparse", func() (float64, error) { return stepNs(128, 16, sim.Cycle(200_000/k)) }},
		{"sim.step_ns.dense.16x16", func() (float64, error) { return stepNs(512, 1, sim.Cycle(25_000/k)) }},
		{"sim.step_ns.sparse.16x16", func() (float64, error) { return stepNs(512, 16, sim.Cycle(50_000/k)) }},
		{"sim.event_ns", func() (float64, error) { return eventNs(350_000 / k) }},
		{"sim.fastforward_ns", func() (float64, error) { return fastForwardNs(200_000 / k) }},
		{"noc.ns_per_flit.8x8", func() (float64, error) { return nocNsPerFlit(8, sim.Cycle(4000/k)) }},
		{"noc.ns_per_flit.16x16", func() (float64, error) { return nocNsPerFlit(16, sim.Cycle(500/k)) }},
		{"coherence.ns_per_txn.contended", func() (float64, error) { return coherenceNsPerTxn(true, max(64/k, 1)) }},
		{"coherence.ns_per_txn.private", func() (float64, error) { return coherenceNsPerTxn(false, max(16/k, 1)) }},
		{"build.ms_per_system.8x8", func() (float64, error) {
			ms, mb, err := buildCost(8)
			buildMB = mb
			return ms, err
		}},
		{"build.ms_per_system.16x16", func() (float64, error) {
			ms, _, err := buildCost(16)
			return ms, err
		}},
		{"analytic.us_per_cell", func() (float64, error) { return analyticUsPerCell(sweepCfgs, max(200/k, 1)) }},
	}
	for _, p := range probes {
		var v float64
		var err error
		tr.do("probe "+p.name, -1, func() { v, err = p.fn() })
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name] = v
	}
	out["build.mb_per_system"] = buildMB
	return out, nil
}
