package main

import (
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"

	"inpg"
	"inpg/internal/experiments"
	"inpg/internal/manifest"
	"inpg/internal/metrics"
	"inpg/internal/runner"
)

// cellResult is what one simulated cell produced and cost.
type cellResult struct {
	fp   fingerprint
	cpu  float64 // CPU seconds: inpg.New plus System.Run
	heap uint64  // HeapAlloc once Run has returned (see simPass, sweepPass)
	err  error
}

// passResult is one pass over a workload's fixed cell list.
type passResult struct {
	traced bool
	// timed covers set-up, run, dispatch and artifact I/O; it excludes
	// the forced collections, heap readings and result checks.
	timed  cost
	setup  float64 // CPU seconds inside inpg.New
	runCPU float64 // CPU seconds inside System.Run; sweep: claim to completion, New included
	cycles uint64  // simulated cycles, summed over cells
	alloc  uint64  // bytes allocated inside timed calls
	cells  []cellResult

	// Traced passes only.
	counts   map[string]float64 // in-run counters summed over cells
	gcCycles uint64             // automatic GC cycles during the pass
	gcCPU    float64            // GC CPU seconds (runtime estimate) during the pass, forced collections excluded
	passCPU  float64            // process CPU seconds during the pass, forced collections excluded
	orch     *orchestration     // runner and manifest layer figures

	// Sweep only: the rendered Fig. 11/12 of the fresh and resumed halves.
	fig, resumedFig string
	skipped         int // resumed cells served from manifests
}

// orchestration holds the runner/manifest layer figures of one pass.
type orchestration struct {
	overheadMsPerCell float64
	writeMs           []float64
	scanMs            float64
	resumeS           float64
}

// inRunCounters maps the benchmark's per-layer count names onto the
// registry's instrument names (Config.Metrics).
var inRunCounters = []struct{ name, instrument string }{
	{"noc.flits_switched", "noc.flits_switched"},
	{"noc.vc_stalls", "noc.vc_stalls"},
	{"coherence.dir_txns", "dir.txn_started"},
	{"coherence.queued_requests", "dir.queued_requests"},
	{"lock.cs_completed", "cpu.cs_completed"},
	{"bigrouter.early_invs", "inpg.early_invs"},
	{"bigrouter.getx_stopped", "inpg.getx_stopped"},
}

// addSnapshot adds one cell's registry counters to counts, with the
// cell's Run wall time for the barrier-wait share. The registry has
// shard instruments only when the run was sharded.
func addSnapshot(counts map[string]float64, snap *metrics.Snapshot, runWall float64) {
	for _, rc := range inRunCounters {
		v, _ := snap.Get(rc.instrument)
		counts[rc.name] += float64(v)
	}
	ns, _ := snap.Get("shard.barrier_wait_ns")
	counts["shard.barrier_wait_s"] += float64(ns) / 1e9
	counts["run.wall_s"] += runWall
}

// forcedGC accounts for the benchmark's own forced collections: the CPU
// they take and the share of it the runtime books as GC. A traced pass
// subtracts both, so gc.cpu_fraction counts only the collections the
// program's own allocation triggers, not the fixed cost of settle.
type forcedGC struct{ cpu, gcCPU float64 }

func (f *forcedGC) settle() {
	_, g0 := gcSamples()
	c0 := cpuSeconds()
	settle()
	_, g1 := gcSamples()
	f.cpu += cpuSeconds() - c0
	f.gcCPU += g1 - g0
}

// gcSamples reads the runtime's automatic-GC cycle count and its GC CPU
// estimate.
func gcSamples() (cycles uint64, cpu float64) {
	s := []rtmetrics.Sample{
		{Name: "/gc/cycles/automatic:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64()
}

// simPass runs every cell by calling inpg.New and System.Run directly.
// Before each cell a forced collection (untimed) clears the previous
// cell's garbage; after Run a second one (untimed, the system still
// referenced) lets HeapAlloc read the live system rather than garbage.
// A traced pass turns on Config.Metrics and records spans.
func simPass(cfgs []inpg.Config, tr *tracer) passResult {
	p := passResult{traced: tr != nil}
	if p.traced {
		p.counts = make(map[string]float64)
	}
	var forced forcedGC
	gc0, gcCPU0 := gcSamples()
	cpu0 := cpuSeconds()
	for i, cfg := range cfgs {
		cfg.Metrics = p.traced
		forced.settle()
		before := memStats()
		var c cellResult

		cell := tr.begin("cell", i)
		sw := startWatch()
		h := tr.begin("inpg.New", i)
		sys, err := inpg.New(cfg)
		tr.end(h)
		setup := sw.elapsed()
		var res *inpg.Results
		var run cost
		if err == nil {
			sw = startWatch()
			h = tr.begin("System.Run", i)
			res, err = sys.Run()
			tr.end(h)
			run = sw.elapsed()
		}
		tr.end(cell)
		after := memStats()

		p.timed.add(setup)
		p.timed.add(run)
		p.setup += setup.CPU
		p.runCPU += run.CPU
		p.alloc += after.TotalAlloc - before.TotalAlloc
		c.cpu = setup.CPU + run.CPU
		c.err = err
		if err == nil {
			c.fp = fingerprintOf(res)
			p.cycles += res.Runtime
			if p.traced {
				h = tr.begin("System.MetricsSnapshot", i)
				addSnapshot(p.counts, sys.MetricsSnapshot(), run.Wall)
				tr.end(h)
			}
			forced.settle()
			c.heap = memStats().HeapAlloc
		}
		runtime.KeepAlive(sys)
		p.cells = append(p.cells, c)
	}
	if p.traced {
		gc1, gcCPU1 := gcSamples()
		p.gcCycles = gc1 - gc0
		p.gcCPU = gcCPU1 - gcCPU0 - forced.gcCPU
		p.passCPU = cpuSeconds() - cpu0 - forced.cpu
	}
	return p
}

// sweepPass runs the sweep workload: experiments.RunSuite over the fresh
// cells with the benchmark's observer writing each cell's manifest
// (manifest.Build + WriteFile) into dir, then the same sweep resumed from
// dir, where every cell must be a manifest hit. The runner calls
// inpg.New itself, so set-up is measured beforehand by building every
// cell's system once more (untimed forced collection before each), and a
// cell's CPU time is its claim-to-completion time, New included.
func sweepPass(seed int64, tiny bool, cfgs []inpg.Config, dir string, tr *tracer) (passResult, error) {
	p := passResult{traced: tr != nil}
	if err := os.RemoveAll(dir); err != nil {
		return p, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return p, err
	}

	for i, cfg := range cfgs {
		settle()
		sw := startWatch()
		h := tr.begin("inpg.New", i)
		sys, err := inpg.New(cfg)
		tr.end(h)
		p.setup += sw.elapsed().CPU
		if err != nil {
			return p, fmt.Errorf("sweep cell %d: %w", i, err)
		}
		runtime.KeepAlive(sys)
	}

	o := sweepOptions(seed, tiny)
	o.Metrics = p.traced
	if p.traced {
		p.counts = make(map[string]float64)
		p.orch = &orchestration{}
	}
	p.cells = make([]cellResult, len(cfgs))
	var (
		untimed  cost // observer work kept out of the pass: forced GCs, heap readings
		cellWall float64
		writes   cost
		claim    stopwatch
		before   runtime.MemStats
		cellSpan int
		bad      error
		forced   forcedGC
	)
	o.Observer = func(out runner.Outcome) {
		sw := startWatch()
		if out.Index >= len(cfgs) || out.Cfg.Digest() != withMetrics(cfgs[out.Index], p.traced).Digest() {
			bad = fmt.Errorf("sweep cell %d: RunSuite submitted a configuration the benchmark did not generate", out.Index)
		}
		if !out.Done {
			tr.do("settle (untimed)", out.Index, forced.settle)
			before = memStats()
			untimed.add(sw.elapsed())
			cellSpan = tr.begin("cell", out.Index)
			claim = startWatch()
			return
		}
		cellCost := claim.elapsed()
		tr.end(cellSpan)
		after := memStats()
		untimed.add(sw.elapsed())

		c := cellResult{cpu: cellCost.CPU, heap: after.HeapAlloc, err: out.Err}
		p.alloc += after.TotalAlloc - before.TotalAlloc
		p.runCPU += cellCost.CPU
		cellWall += out.WallSeconds
		if out.Err == nil && out.Res != nil {
			c.fp = fingerprintOf(out.Res)
			p.cycles += out.Res.Runtime
			if out.Snapshot != nil {
				addSnapshot(p.counts, out.Snapshot, out.WallSeconds)
			}
		} else if out.Err == nil {
			c.err = fmt.Errorf("sweep cell %d completed without results", out.Index)
		}
		p.cells[out.Index] = c

		w := startWatch()
		h := tr.begin("manifest.Build+WriteFile", out.Index)
		m := manifest.Build(sweepName, out.Index, out.Cfg, out.Res, out.Snapshot, out.WallSeconds, out.Err)
		_, err := m.WriteFile(dir)
		tr.end(h)
		wc := w.elapsed()
		writes.add(wc)
		if p.orch != nil {
			p.orch.writeMs = append(p.orch.writeMs, wc.Wall*1e3)
		}
		if err != nil && bad == nil {
			bad = fmt.Errorf("sweep cell %d: manifest: %w", out.Index, err)
		}
	}

	gc0, gcCPU0 := gcSamples()
	cpu0 := cpuSeconds()
	sw := startWatch()
	h := tr.begin("experiments.RunSuite", -1)
	suite, err := experiments.RunSuite(o)
	tr.end(h)
	fresh := sw.elapsed()
	if err != nil {
		return p, fmt.Errorf("sweep: %w", err)
	}
	if bad != nil {
		return p, bad
	}
	p.fig = suite.RenderFig11() + suite.RenderFig12()
	fresh.Wall -= untimed.Wall
	fresh.CPU -= untimed.CPU

	if p.traced {
		sw := startWatch()
		h := tr.begin("manifest.ScanDir", -1)
		found, _, err := manifest.ScanDir(dir, sweepName)
		tr.end(h)
		p.orch.scanMs = sw.elapsed().Wall * 1e3
		if err != nil {
			return p, fmt.Errorf("sweep: scan: %w", err)
		}
		if len(found) != len(cfgs) {
			return p, fmt.Errorf("sweep: scan found %d manifests, want %d", len(found), len(cfgs))
		}
	}

	o.Resume = dir
	o.Observer = func(out runner.Outcome) {
		if out.Status == runner.StatusSkipped {
			p.skipped++
		}
	}
	sw = startWatch()
	h = tr.begin("experiments.RunSuite(resume)", -1)
	resumed, err := experiments.RunSuite(o)
	tr.end(h)
	resumedCost := sw.elapsed()
	if err != nil {
		return p, fmt.Errorf("sweep resume: %w", err)
	}
	p.resumedFig = resumed.RenderFig11() + resumed.RenderFig12()

	p.timed = fresh
	p.timed.add(resumedCost)
	if p.traced {
		gc1, gcCPU1 := gcSamples()
		p.gcCycles = gc1 - gc0
		p.gcCPU = gcCPU1 - gcCPU0 - forced.gcCPU
		p.passCPU = cpuSeconds() - cpu0 - forced.cpu
		p.orch.overheadMsPerCell = (fresh.Wall - cellWall - writes.Wall) * 1e3 / float64(len(cfgs))
		p.orch.resumeS = resumedCost.Wall
	}
	return p, nil
}

// withMetrics returns cfg with Config.Metrics set as a traced pass sets it.
func withMetrics(cfg inpg.Config, on bool) inpg.Config {
	cfg.Metrics = on
	return cfg
}
