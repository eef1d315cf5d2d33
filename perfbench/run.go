package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"

	"inpg"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload workloadDef
	seed     int64
	seconds  float64
	trace    bool
	work     string
	golden   *goldenTable
	// tiny shrinks every cell (harness tests); passes, when positive,
	// overrides the pass count derived from seconds.
	tiny   bool
	passes int
}

// passCount turns the nominal measuring time into a fixed number of whole
// passes: at least three untraced passes, so every median has a middle,
// and in a traced run at least two traced and two untraced.
func (rc runConfig) passCount() int {
	if rc.passes > 0 {
		return rc.passes
	}
	n := int(math.Round(rc.seconds / rc.workload.passSeconds))
	if rc.trace {
		return max(n, 4)
	}
	return max(n, 3)
}

// checker counts attempted and failed cells and keeps one line per
// failed check.
type checker struct {
	attempted, failed int
	issues            []string
}

func (c *checker) cell(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.issues = append(c.issues, fmt.Sprintf(format, args...))
	}
}

// run executes the configured passes, checks every result and assembles
// the report. log receives progress lines.
func run(rc runConfig, log io.Writer) (*report, error) {
	w := rc.workload
	cfgs := w.cells(rc.seed, rc.tiny)
	var goldenFPs []fingerprint
	goldenFig, haveFig := "", false
	checked := false
	if rc.golden != nil {
		key := goldenKey{w.name, rc.seed}
		if rc.tiny {
			key.workload = tinyName(w.name)
		}
		goldenFPs, checked = rc.golden.cells[key]
		goldenFig, haveFig = rc.golden.figs[key]
		if checked && len(goldenFPs) != len(cfgs) {
			return nil, fmt.Errorf("golden values list %d cells for %s seed %d, the workload has %d",
				len(goldenFPs), w.name, rc.seed, len(cfgs))
		}
		if w.sweep && checked != haveFig {
			return nil, fmt.Errorf("golden values for sweep seed %d need both cells and figure", rc.seed)
		}
	}

	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	passes := rc.passCount()
	var plain, traced []passResult
	var first []fingerprint
	var cal []float64 // calibration kernel CPU seconds, before each untraced pass and after the last
	chk := &checker{}
	manifests := filepath.Join(rc.work, "manifests-"+w.name)
	for i := 0; i < passes; i++ {
		var ptr *tracer
		if rc.trace && i%2 == 1 {
			ptr = tr
		}
		if !rc.trace {
			cal = append(cal, calibrate())
		}
		var p passResult
		if w.sweep {
			var err error
			if p, err = sweepPass(rc.seed, rc.tiny, cfgs, manifests, ptr); err != nil {
				return nil, err
			}
		} else {
			p = simPass(cfgs, ptr)
		}
		if first == nil {
			first = make([]fingerprint, len(p.cells))
			for j, c := range p.cells {
				first[j] = c.fp
			}
		}
		checkPass(chk, p, cfgs, first, goldenFPs, goldenFig, checked)
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		fmt.Fprintf(log, "perfbench: %s pass %d/%d: %.3f s wall, %.3f s cpu%s\n",
			w.name, i+1, passes, p.timed.Wall, p.timed.CPU, map[bool]string{true: " (traced)"}[p.traced])
	}

	if !rc.trace {
		cal = append(cal, calibrate())
	}

	rep := &report{notes: make(map[string]string)}
	status := "unchecked: seed not in the golden table; determinism and invariant checks only"
	if checked {
		status = "checked against golden values"
	}
	rep.header = fmt.Sprintf("perfbench: workload=%s seed=%d passes=%d cells/pass=%d shards=%d results %s",
		w.name, rc.seed, passes, len(cfgs), max(cfgs[0].Shards, 1), status)

	if rc.trace {
		layers, err := layerMetrics(rc, plain, traced, tr, chk)
		if err != nil {
			return nil, err
		}
		rep.defs = perLayer
		rep.Metrics = layers
		rep.notes["trace.overhead_pct"] = "traced vs untraced pass CPU, same run"
		spans := filepath.Join(rc.work, fmt.Sprintf("spans-%s-seed%d.json", w.name, rc.seed))
		if err := tr.write(spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(log, "perfbench: %d spans written to %s\n", len(tr.spans), spans)
		tr.printSelfTimes(log)
	} else {
		rep.defs = endToEnd
		rep.Metrics = endToEndMetrics(plain, len(cfgs), median(cal), rep.notes)
		rep.tableOnly = make(map[string]metricValue)
		for _, name := range []string{"pass_s", "pass_cpu_s.raw", "host.calibration_ms"} {
			rep.tableOnly[name] = rep.Metrics[name]
			delete(rep.Metrics, name)
		}
	}
	rep.Attempted, rep.Failed, rep.issues = chk.attempted, chk.failed, chk.issues
	rep.Correct = chk.failed == 0
	if err := rep.finite(); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkPass checks every cell of a pass: it ran, it completed every
// critical section, it matches the first pass (determinism) and, for
// seeds in the table, its golden fingerprint. Sweep passes also check
// their rendered figures and that the resumed half hit every manifest.
func checkPass(chk *checker, p passResult, cfgs []inpg.Config, first, golden []fingerprint, goldenFig string, checked bool) {
	for i, c := range p.cells {
		threads := cfgs[i].Threads
		if threads == 0 {
			threads = cfgs[i].MeshWidth * cfgs[i].MeshHeight
		}
		switch {
		case c.err != nil:
			chk.cell(false, "cell %d: %v", i, c.err)
		case c.fp.CSCompleted != uint64(threads*cfgs[i].CSPerThread):
			chk.cell(false, "cell %d: %d critical sections completed, want %d", i, c.fp.CSCompleted, threads*cfgs[i].CSPerThread)
		case c.fp != first[i]:
			chk.cell(false, "cell %d: result %v differs from the first pass's %v", i, c.fp, first[i])
		case checked && c.fp != golden[i]:
			chk.cell(false, "cell %d: result %v differs from golden %v", i, c.fp, golden[i])
		default:
			chk.cell(true, "")
		}
	}
	if p.fig == "" && p.resumedFig == "" {
		return
	}
	// The resumed half: each cell is a manifest hit feeding the figure.
	figOK := p.fig == p.resumedFig && (!checked || p.fig == goldenFig)
	for i := range cfgs {
		switch {
		case !figOK:
			chk.cell(false, "sweep: resumed cell %d: rendered Fig. 11/12 differs (fresh vs resumed vs golden)", i)
		case p.skipped != len(cfgs):
			chk.cell(false, "sweep: resumed cell %d: only %d of %d cells were manifest hits", i, p.skipped, len(cfgs))
		default:
			chk.cell(true, "")
		}
	}
}

// endToEndMetrics reduces the untraced passes to the end-to-end metrics:
// medians over passes, and per-cell CPU percentiles over the cells'
// per-pass medians. Percentiles over pooled samples of a few very
// different cells sat on the gap between two cells and jumped with the
// noise of a single sample; each cell's median does not. Every CPU-clock
// metric is scaled to the reference host's speed by calibrationRef/cal,
// cal being the run's median calibration kernel time (see calibrate.go).
func endToEndMetrics(plain []passResult, cells int, cal float64, notes map[string]string) map[string]metricValue {
	scale := calibrationRef / cal
	var wall, cpu, speed, setup, alloc, heap []float64
	for _, p := range plain {
		wall = append(wall, p.timed.Wall)
		cpu = append(cpu, p.timed.CPU)
		speed = append(speed, float64(p.cycles)/1e3/p.runCPU)
		setup = append(setup, p.setup)
		alloc = append(alloc, float64(p.alloc)/1e6/float64(cells))
		for _, c := range p.cells {
			heap = append(heap, float64(c.heap)/1e6)
		}
	}
	cellCPU := make([]float64, cells)
	for i := range cellCPU {
		v := make([]float64, len(plain))
		for j, p := range plain {
			v[j] = p.cells[i].cpu * 1e3
		}
		cellCPU[i] = median(v) * scale
	}
	tailV, tailPct := tail(cellCPU)
	n := len(plain)
	notes["pass_s"] = fmt.Sprintf("wall clock, median of %d passes; table only, too noisy to bound", n)
	notes["pass_cpu_s"] = fmt.Sprintf("process user+sys CPU, median of %d passes, at reference speed", n)
	notes["pass_cpu_s.raw"] = "the same, as measured; table only"
	notes["host.calibration_ms"] = fmt.Sprintf("median of %d calibration kernel runs; reference %.0f ms, scale %.3f",
		n+1, calibrationRef*1e3, scale)
	notes["sim_kcycles_per_cpu_s"] = "simulated kcycles per CPU second of the cells' runs, at reference speed"
	notes["setup_s"] = "CPU inside inpg.New summed over a pass, GC forced before each call, at reference speed"
	notes["alloc_mb_per_cell"] = "TotalAlloc per cell, 1 MB = 1e6 bytes"
	notes["cell_heap_mb"] = fmt.Sprintf("HeapAlloc after Run, median of %d cell runs", len(heap))
	notes["cell_cpu_ms_p50"] = fmt.Sprintf("median over %d cells of each cell's median CPU, at reference speed", cells)
	notes["cell_cpu_ms_tail"] = fmt.Sprintf("p%.1f over %d cells (10 above it, or the slowest)", tailPct, cells)
	return map[string]metricValue{
		"pass_s":                {median(wall), "s"},
		"pass_cpu_s.raw":        {median(cpu), "s"},
		"host.calibration_ms":   {cal * 1e3, "ms"},
		"pass_cpu_s":            {median(cpu) * scale, "s"},
		"sim_kcycles_per_cpu_s": {median(speed) / scale, "kcycles/s"},
		"setup_s":               {median(setup) * scale, "s"},
		"alloc_mb_per_cell":     {median(alloc), "MB"},
		"cell_heap_mb":          {median(heap), "MB"},
		"cell_cpu_ms_p50":       {median(cellCPU), "ms"},
		"cell_cpu_ms_tail":      {tailV, "ms"},
	}
}

// layerMetrics assembles the per-layer metrics of a traced run: in-run
// counts and costs from the traced passes, the layer probes, and the
// runner/manifest figures (from the sweep passes themselves, or from one
// tiny sweep pass for the other workloads).
func layerMetrics(rc runConfig, plain, traced []passResult, tr *tracer, chk *checker) (map[string]metricValue, error) {
	out := make(map[string]float64)
	// The counts are exact: checkPass has already failed any traced cell
	// whose fingerprint differs from the untraced first pass.
	p := traced[0]
	for _, c := range inRunCounters {
		out[c.name] = p.counts[c.name]
	}
	out["shard.barrier_wait_share"] = ratio(p.counts["shard.barrier_wait_s"], p.counts["run.wall_s"])
	out["sim.kcycles"] = float64(p.cycles) / 1e3

	var runCPU, gcCycles, gcFrac, tracedCPU, plainCPU []float64
	for _, q := range traced {
		runCPU = append(runCPU, q.runCPU)
		gcCycles = append(gcCycles, float64(q.gcCycles))
		gcFrac = append(gcFrac, q.gcCPU/q.passCPU)
		tracedCPU = append(tracedCPU, q.timed.CPU)
	}
	for _, q := range plain {
		plainCPU = append(plainCPU, q.timed.CPU)
	}
	out["run.cpu_ns_per_flit"] = ratio(median(runCPU)*1e9, p.counts["noc.flits_switched"])
	out["run.cpu_ns_per_cs"] = ratio(median(runCPU)*1e9, p.counts["lock.cs_completed"])
	out["gc.cycles"] = median(gcCycles)
	out["gc.cpu_fraction"] = median(gcFrac)
	out["trace.overhead_pct"] = (median(tracedCPU)/median(plainCPU) - 1) * 100

	probes, err := layerProbes(tr, rc.tiny)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		out[k] = v
	}

	// The runner and manifest layers are crossed only by the sweep. The
	// other workloads still report their figures, from one traced pass of
	// the tiny sweep: the same experiments.RunSuite run and resume, on 8
	// small cells, checked for fresh = resumed figures and manifest hits.
	var orchs []*orchestration
	if rc.workload.sweep {
		for _, q := range traced {
			orchs = append(orchs, q.orch)
		}
	} else {
		sw, _ := workloadByName("sweep")
		scfgs := sw.cells(rc.seed, true)
		dir := filepath.Join(rc.work, "manifests-"+rc.workload.name)
		q, err := sweepPass(rc.seed, true, scfgs, dir, tr)
		if err != nil {
			return nil, fmt.Errorf("runner/manifest figures: %w", err)
		}
		own := make([]fingerprint, len(q.cells))
		for i, c := range q.cells {
			own[i] = c.fp
		}
		checkPass(chk, q, scfgs, own, nil, "", false)
		orchs = append(orchs, q.orch)
	}
	var overhead, writeMs, scanMs, resumeS []float64
	for _, o := range orchs {
		overhead = append(overhead, o.overheadMsPerCell)
		writeMs = append(writeMs, o.writeMs...)
		scanMs = append(scanMs, o.scanMs)
		resumeS = append(resumeS, o.resumeS)
	}
	out["runner.overhead_ms_per_cell"] = median(overhead)
	out["manifest.write_ms_p50"] = median(writeMs)
	out["manifest.scan_ms"] = median(scanMs)
	out["manifest.resume_s"] = median(resumeS)

	metrics := make(map[string]metricValue, len(perLayer))
	var missing []string
	for _, d := range perLayer {
		v, ok := out[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		metrics[d.name] = metricValue{v, d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("traced run produced no value for %s", strings.Join(missing, ", "))
	}
	return metrics, nil
}

// ratio is a/b, or 0 when a failed pass left nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
