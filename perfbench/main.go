// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed number of whole passes, checks every
// simulated result against golden values, and prints every metric by
// name with its unit; the last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload hotlock --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes, runs the layer probes, and
// reports the per-layer metrics. See README.md for the workloads, the
// metrics and how to read a traced run. Two more entry points:
//
//	perfbench compare base.jsonl head.jsonl   # paired comparison of two result sets
//	perfbench golden 1 2 > golden/cells.txt   # regenerate golden values
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
		case "golden":
			os.Exit(goldenMain(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain parses the benchmark flags, runs one workload and prints the
// report. It exits 1 on a usage or infrastructure error without printing
// a result line; failed checks still print one, with "correct": false.
func runMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: hotlock, idle, mesh16 or sweep")
	seed := fl.Int64("seed", 1, "workload seed; golden values exist for the seeds in golden/cells.txt")
	seconds := fl.Float64("seconds", 10, "nominal measuring time; fixes the number of whole passes")
	trace := fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
	work := fl.String("work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for manifests and spans")
	record := fl.String("record", "", "append a JSON record of this run to this file (input to compare)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: golden values:", err)
		return 1
	}
	rc := runConfig{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		work: *work, golden: golden,
	}
	start := time.Now()
	rep, err := run(rc, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	if *record != "" {
		if err := appendRecord(*record, w.name, *seed, rc.trace, start, rep); err != nil {
			fmt.Fprintln(stderr, "perfbench: record:", err)
			return 1
		}
	}
	return 0
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports in its result line,
// in print order. pass_s, the pass's wall time, is printed in the table
// only: on a host with VM steal time its spread across runs (0.3-0.5 of
// its median) exceeds any useful bound, and pass_cpu_s is its steady twin.
var endToEnd = []metricDef{
	{"pass_cpu_s", "s"},
	{"sim_kcycles_per_cpu_s", "kcycles/s"},
	{"setup_s", "s"},
	{"alloc_mb_per_cell", "MB"},
	{"cell_heap_mb", "MB"},
	{"cell_cpu_ms_p50", "ms"},
	{"cell_cpu_ms_tail", "ms"},
}

// perLayer lists the metrics a traced run reports, in print order.
var perLayer = []metricDef{
	{"sim.step_ns.dense", "ns"},
	{"sim.step_ns.sparse", "ns"},
	{"sim.step_ns.dense.16x16", "ns"},
	{"sim.step_ns.sparse.16x16", "ns"},
	{"sim.event_ns", "ns"},
	{"sim.fastforward_ns", "ns"},
	{"noc.ns_per_flit.8x8", "ns"},
	{"noc.ns_per_flit.16x16", "ns"},
	{"coherence.ns_per_txn.contended", "ns"},
	{"coherence.ns_per_txn.private", "ns"},
	{"build.ms_per_system.8x8", "ms"},
	{"build.ms_per_system.16x16", "ms"},
	{"build.mb_per_system", "MB"},
	{"runner.overhead_ms_per_cell", "ms"},
	{"manifest.write_ms_p50", "ms"},
	{"manifest.scan_ms", "ms"},
	{"manifest.resume_s", "s"},
	{"analytic.us_per_cell", "us"},
	{"noc.flits_switched", "count"},
	{"noc.vc_stalls", "count"},
	{"coherence.dir_txns", "count"},
	{"coherence.queued_requests", "count"},
	{"lock.cs_completed", "count"},
	{"bigrouter.early_invs", "count"},
	{"bigrouter.getx_stopped", "count"},
	{"shard.barrier_wait_share", "ratio"},
	{"run.cpu_ns_per_flit", "ns"},
	{"run.cpu_ns_per_cs", "ns"},
	{"gc.cycles", "count"},
	{"gc.cpu_fraction", "ratio"},
	{"sim.kcycles", "kcycles"},
	{"trace.overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is a finished run: the result line plus what the human-readable
// table around it says.
type report struct {
	result
	defs   []metricDef
	header string
	notes  map[string]string // per-metric remark printed beside the value
	issues []string          // failed checks, one line each
	// tableOnly holds metrics printed in the table but kept out of the
	// result line.
	tableOnly map[string]metricValue
}

func (r *report) print(w io.Writer) {
	fmt.Fprintln(w, r.header)
	for _, issue := range r.issues {
		fmt.Fprintln(w, "CHECK FAILED:", issue)
	}
	fmt.Fprintf(w, "%-32s %16s  %-9s %s\n", "metric", "value", "unit", "note")
	for _, d := range r.defs {
		fmt.Fprintf(w, "%-32s %16.6g  %-9s %s\n", d.name, r.Metrics[d.name].Value, d.unit, r.notes[d.name])
	}
	var extra []string
	for name := range r.tableOnly {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		m := r.tableOnly[name]
		fmt.Fprintf(w, "%-32s %16.6g  %-9s %s\n", name, m.Value, m.Unit, r.notes[name])
	}
	frac := float64(r.Failed) / float64(r.Attempted)
	fmt.Fprintf(w, "%-32s %16.6g  %-9s %d of %d cells failed\n", "fail_frac", frac, "ratio", r.Failed, r.Attempted)
	line, err := json.Marshal(r.result)
	if err != nil {
		// Every value is a finite float64 or a plain field.
		panic(err)
	}
	fmt.Fprintln(w, string(line))
}

// appendRecord adds one JSON line {workload, seed, trace, start, result}
// to path.
func appendRecord(path, workload string, seed int64, traced bool, start time.Time, rep *report) error {
	rec := record{Workload: workload, Seed: seed, Trace: traced, Start: start, Result: rep.result}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type record struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Trace    bool      `json:"trace"`
	Start    time.Time `json:"start"` // when the run began; compare checks pairs are interleaved
	Result   result    `json:"result"`
}

// finite reports whether every metric value can be encoded as JSON.
func (r *result) finite() error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}
