package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinyRun runs a workload on tiny cells with a fixed pass count.
func tinyRun(t *testing.T, name string, trace bool, golden *goldenTable) *report {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	passes := 3
	if trace {
		passes = 2
	}
	rep, err := run(runConfig{workload: w, seed: 1, trace: trace, work: t.TempDir(),
		golden: golden, tiny: true, passes: passes}, &bytes.Buffer{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// lastLine parses the result line the report prints last.
func lastLine(t *testing.T, rep *report) result {
	t.Helper()
	var out bytes.Buffer
	rep.print(&out)
	for _, name := range []string{"fail_frac", "metric"} {
		if !strings.Contains(out.String(), "\n"+name+" ") {
			t.Errorf("table has no %s row:\n%s", name, out.String())
		}
	}
	if len(rep.defs) == len(endToEnd) && !strings.Contains(out.String(), "\npass_s ") {
		t.Errorf("untraced table has no pass_s row:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return res
}

func TestTinyRunEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			res := lastLine(t, tinyRun(t, w.name, trace, nil))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
			}
		}
	}
}

// TestBenchmarkSpecMatchesMetrics keeps BENCHMARK.json and the program's
// metric tables in step.
func TestBenchmarkSpecMatchesMetrics(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestGoldenMismatchCountsAsFailure(t *testing.T) {
	for _, name := range []string{"hotlock", "sweep"} {
		w, _ := workloadByName(name)
		cfgs := w.cells(1, true)
		key := goldenKey{tinyName(name), 1}

		// Golden values taken from a clean pass check clean.
		g := newGoldenTable()
		var p passResult
		if w.sweep {
			var err error
			if p, err = sweepPass(1, true, cfgs, t.TempDir(), nil); err != nil {
				t.Fatal(err)
			}
			g.figs[key] = p.fig
		} else {
			p = simPass(cfgs, nil)
		}
		for _, c := range p.cells {
			g.cells[key] = append(g.cells[key], c.fp)
		}
		if res := lastLine(t, tinyRun(t, name, false, g)); !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: clean golden values: correct=%v failed=%d", name, res.Correct, res.Failed)
		}

		// One perturbed fingerprint fails that cell in every pass.
		g.cells[key][2].Runtime++
		rep := tinyRun(t, name, false, g)
		res := lastLine(t, rep)
		if res.Correct || res.Failed != 3 || float64(res.Failed)/float64(res.Attempted) <= 0 {
			t.Errorf("%s: perturbed fingerprint: correct=%v failed=%d of %d", name, res.Correct, res.Failed, res.Attempted)
		}
		if !strings.Contains(strings.Join(rep.issues, "\n"), "differs from golden") {
			t.Errorf("%s: issues do not name the golden mismatch: %v", name, rep.issues)
		}
		g.cells[key][2].Runtime--

		if w.sweep {
			// A changed figure byte fails every resumed cell of every pass.
			g.figs[key] = strings.Replace(g.figs[key], "1", "2", 1)
			res := lastLine(t, tinyRun(t, name, false, g))
			if res.Correct || res.Failed != 3*len(cfgs) {
				t.Errorf("sweep: perturbed figure: correct=%v failed=%d", res.Correct, res.Failed)
			}
		}
	}
}

func TestGoldenTableCoversDefaultAndHeldOutSeeds(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			fps, ok := g.cells[goldenKey{w.name, seed}]
			if n := len(w.cells(seed, false)); !ok || len(fps) != n {
				t.Errorf("%s seed %d: %d golden cells, workload has %d", w.name, seed, len(fps), n)
			}
		}
	}
	for _, seed := range []int64{1, 2} {
		if !strings.Contains(g.figs[goldenKey{"sweep", seed}], "Figure 11") {
			t.Errorf("sweep seed %d: golden figure missing", seed)
		}
	}
}

func TestCPUClockAndSettle(t *testing.T) {
	// A single-threaded busy loop that does not allocate cannot use more
	// CPU than the wall time it took, and must register on the CPU clock.
	sw := startWatch()
	giveUp := time.Now().Add(5 * time.Second)
	for cpuSeconds()-sw.cpu < 0.05 && time.Now().Before(giveUp) {
	}
	c := sw.elapsed()
	if c.CPU < 0.05 || c.Wall < 0.9*c.CPU {
		t.Errorf("busy loop measured wall %.4f s, cpu %.4f s", c.Wall, c.CPU)
	}
	before := memStats().NumGC
	settle()
	if after := memStats().NumGC; after <= before {
		t.Errorf("settle ran no collection: NumGC %d -> %d", before, after)
	}
	var sink []byte
	for i := 0; i < 100; i++ {
		sink = make([]byte, 1<<20)
	}
	runtime.KeepAlive(sink)
	settle()
	if heap := memStats().HeapAlloc; heap > 64<<20 {
		t.Errorf("heap after settle still holds %d bytes of garbage", heap)
	}
}

func TestCalibrationKernel(t *testing.T) {
	// Fixed work: the same checksum every time, and a time on the CPU clock.
	if a, b := calibrationKernel(20_000), calibrationKernel(20_000); a != b {
		t.Errorf("kernel checksum %d, then %d", a, b)
	}
	if c := calibrate(); c <= 0 || c > 60*calibrationRef {
		t.Errorf("calibration took %v s of CPU, reference %v s", c, calibrationRef)
	}
}

func TestStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 9, 2, 7, 3, 8, 6, 4, 10}, 2.75, 8.25},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	var v []float64
	for i := 1; i <= 96; i++ {
		v = append(v, float64(i))
	}
	if val, pct := tail(v); val != 86 || math.Abs(pct-86.0/96*100) > 1e-9 {
		t.Errorf("tail of 1..96 = %v at p%v, want 86 (ten above)", val, pct)
	}
	if val, pct := tail(v[:16]); val != 16 || pct != 100 {
		t.Errorf("tail of 16 samples = %v at p%v, want the maximum", val, pct)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10.1, 10, 10.2}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		head   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"faster", scale(0.8), false, 0.1, "better"},
		{"slower", scale(1.3), false, 0.1, "worse"},
		{"within bound", scale(1.02), false, 0.1, "same"},
		{"higher is better", scale(1.3), true, 0.1, "better"},
		{"too noisy", []float64{8, 13, 9, 12, 10, 14, 7, 11, 10, 12}, false, 0.1, "unresolved"},
		{"no bound, slower", scale(1.05), false, math.Inf(1), "worse"},
		{"no bound, unchanged", base, false, math.Inf(1), "same"},
	} {
		if got := compareMetric(base, c.head, c.higher, c.bound); got.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (won %d/%d)", c.name, got.verdict, c.want, got.won, got.pairs)
		}
	}
	// A host that slows by half over the runs moves both sides of every
	// pair: the paired ratios stay steady although each side's own spread
	// exceeds the bound.
	var drift, drifted []float64
	for i := 0; i < 10; i++ {
		drift = append(drift, 10+float64(i))
		drifted = append(drifted, (10+float64(i))*(1+0.01*float64(i%3-1)))
	}
	if spread(drift) <= 0.25 {
		t.Fatalf("drifting base spread %v, want above the bound", spread(drift))
	}
	if got := compareMetric(drift, drifted, false, 0.25); got.verdict != "same" {
		t.Errorf("drifting host: verdict %q, want same (ratio %v)", got.verdict, got.ratio)
	}
}

func TestPairRecords(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rec := func(seed int64, at int) record {
		return record{Workload: "hotlock", Seed: seed, Start: t0.Add(time.Duration(at) * time.Minute)}
	}
	// Interleaved, alternating which side runs first.
	base := []record{rec(1, 0), rec(2, 3), rec(3, 4)}
	head := []record{rec(3, 5), rec(1, 1), rec(2, 2)}
	p := pairRecords(base, head)
	if p.problem != "" || len(p.base) != 3 {
		t.Fatalf("interleaved pairs: problem %q, %d pairs", p.problem, len(p.base))
	}
	for i := range p.base {
		if p.base[i].Seed != p.head[i].Seed {
			t.Errorf("pair %d: base seed %d, head seed %d", i, p.base[i].Seed, p.head[i].Seed)
		}
	}
	// One set after the other: host drift between them would not cancel.
	if p := pairRecords(base, []record{rec(1, 10), rec(2, 11), rec(3, 12)}); p.problem == "" {
		t.Error("sequential sets accepted as interleaved pairs")
	}
	// A seed on one side only.
	p = pairRecords(base, head[1:])
	if p.problem == "" || len(p.unpaired) != 1 || p.unpaired[0] != "base seed 3" || len(p.base) != 2 {
		t.Errorf("missing head seed 3: problem %q, unpaired %v, %d pairs", p.problem, p.unpaired, len(p.base))
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer", 0)
	time.Sleep(2 * time.Millisecond)
	tr.do("inner", 0, func() { time.Sleep(5 * time.Millisecond) })
	tr.end(outer)
	totals := tr.selfTimes()
	by := map[string]spanTotal{}
	for _, s := range totals {
		by[s.Name] = s
	}
	if tr.spans[1].Parent != tr.spans[0].ID {
		t.Errorf("inner span's parent = %d, want %d", tr.spans[1].Parent, tr.spans[0].ID)
	}
	if o := by["outer"]; o.SelfNs >= o.TotalNs || o.SelfNs+by["inner"].TotalNs != o.TotalNs {
		t.Errorf("outer self %d ns, total %d ns, inner %d ns", o.SelfNs, o.TotalNs, by["inner"].TotalNs)
	}
}

// TestCompareWithholdsGainWithMoreFailures: a faster head side whose runs
// fail more cells than the base side's does not count as better.
func TestCompareWithholdsGainWithMoreFailures(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{{Name: "pass_cpu_s", Unit: "s", Better: "lower", Bound: 0.25}}}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var base, head []record
	for s := int64(1); s <= 10; s++ {
		rec := func(at int64, v float64, failed int) record {
			return record{Workload: "hotlock", Seed: s, Start: t0.Add(time.Duration(2*s+at) * time.Minute),
				Result: result{Attempted: 16, Failed: failed,
					Metrics: map[string]metricValue{"pass_cpu_s": {v, "s"}}}}
		}
		base = append(base, rec(0, 3+0.01*float64(s), 0))
		head = append(head, rec(1, 2+0.01*float64(s), int(s%2)))
	}
	var out bytes.Buffer
	printComparison(&out, spec, base, head)
	if !strings.Contains(out.String(), "withheld") || !strings.Contains(out.String(), "head 5 of 160") {
		t.Errorf("comparison does not withhold the gain:\n%s", out.String())
	}
	for i := range head {
		head[i].Result.Failed = 0
	}
	out.Reset()
	printComparison(&out, spec, base, head)
	if !strings.Contains(out.String(), " better") {
		t.Errorf("comparison without failures is not better:\n%s", out.String())
	}
}
