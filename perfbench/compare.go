package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // absent for per-layer metrics: no bound
}

// compareMain prints a paired comparison of two result sets, each a file
// of JSON records written by --record: per workload, the failed cells of
// each side; per metric, each side's median and quartiles, the median
// head/base ratio of the pairs, the share of pairs the head side won,
// and a verdict (see compareMetric). Records pair by seed and must have
// been run as interleaved pairs (see pairRecords).
func compareMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fl.SetOutput(stderr)
	specPath := fl.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] base.jsonl head.jsonl")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err == nil {
		var base, head []record
		if base, err = readRecords(fl.Arg(0)); err == nil {
			if head, err = readRecords(fl.Arg(1)); err == nil {
				printComparison(stdout, spec, base, head)
				return 0
			}
		}
	}
	fmt.Fprintln(stderr, "perfbench compare:", err)
	return 1
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// comparison is one workload x metric row.
type comparison struct {
	base, head []float64 // paired: base[i] and head[i] ran the same seed
	pairs, won int
	ratio      float64 // median of head[i]/base[i]
	verdict    string
}

// compareMetric judges one metric from paired runs: base[i] and head[i]
// ran the same seed back to back, so a host whose speed drifts over
// minutes moves both and their ratio cancels it. "better" needs the head
// side to win at least nine tenths of the pairs (ties count for
// neither) and the medians to differ by more than the base side's
// interquartile distance, or every head run to beat every base run;
// otherwise a spread of the paired ratios wider than the bound is
// "unresolved"; otherwise "worse" when the median ratio is worse than 1
// by more than the bound, else "same". A metric without a bound (+Inf)
// is "worse" by the mirror of the gain rule instead.
func compareMetric(base, head []float64, higherBetter bool, bound float64) comparison {
	c := comparison{base: base, head: head, pairs: min(len(base), len(head))}
	if c.pairs == 0 {
		c.verdict = "no pairs"
		return c
	}
	better := func(h, b float64) bool {
		if higherBetter {
			return h > b
		}
		return h < b
	}
	lost := 0
	ratios := make([]float64, c.pairs)
	for i := range ratios {
		ratios[i] = head[i] / base[i]
		switch {
		case better(head[i], base[i]):
			c.won++
		case better(base[i], head[i]):
			lost++
		}
	}
	c.ratio = median(ratios)
	mb, mh := median(base), median(head)
	bq1, bq3 := quartiles(base)
	distinct := math.Abs(mh-mb) > bq3-bq1
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				allBetter = false
			}
		}
	}
	worse := c.ratio > 1+bound
	if higherBetter {
		worse = c.ratio < 1-bound
	}
	if math.IsInf(bound, 1) {
		worse = float64(lost) >= 0.9*float64(c.pairs) && distinct && better(mb, mh)
	}
	switch {
	case float64(c.won) >= 0.9*float64(c.pairs) && distinct && better(mh, mb), allBetter:
		c.verdict = "better"
	case spread(ratios) > bound:
		c.verdict = "unresolved"
	case worse:
		c.verdict = "worse"
	default:
		c.verdict = "same"
	}
	return c
}

// pairing matches one workload's base and head records by seed.
type pairing struct {
	base, head []record // base[i] and head[i] ran the same seed
	// unpaired lists the seeds only one side ran; problem says why the
	// records cannot be judged, empty when they can.
	unpaired []string
	problem  string
}

// pairRecords pairs base and head records by seed and checks that they
// were run as interleaved pairs: in start-time order the records form
// consecutive pairs of one seed, one record from each side. Only then
// does a drift of the host's speed between the two sets cancel.
func pairRecords(base, head []record) pairing {
	var p pairing
	bySeed := func(side string, recs []record) map[int64]record {
		m := make(map[int64]record)
		for _, r := range recs {
			if _, dup := m[r.Seed]; dup && p.problem == "" {
				p.problem = fmt.Sprintf("%s ran seed %d more than once", side, r.Seed)
			}
			m[r.Seed] = r
		}
		return m
	}
	bm, hm := bySeed("base", base), bySeed("head", head)
	var seeds []int64
	for s := range bm {
		if _, ok := hm[s]; ok {
			seeds = append(seeds, s)
		} else {
			p.unpaired = append(p.unpaired, fmt.Sprintf("base seed %d", s))
		}
	}
	for s := range hm {
		if _, ok := bm[s]; !ok {
			p.unpaired = append(p.unpaired, fmt.Sprintf("head seed %d", s))
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	sort.Strings(p.unpaired)
	for _, s := range seeds {
		p.base = append(p.base, bm[s])
		p.head = append(p.head, hm[s])
	}
	if p.problem != "" {
		return p
	}
	if len(p.unpaired) > 0 {
		p.problem = "seeds without a partner"
		return p
	}
	type run struct {
		start time.Time
		seed  int64
		head  bool
	}
	var runs []run
	for _, r := range base {
		runs = append(runs, run{r.Start, r.Seed, false})
	}
	for _, r := range head {
		runs = append(runs, run{r.Start, r.Seed, true})
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].start.Before(runs[j].start) })
	for i := 0; i+1 < len(runs); i += 2 {
		a, b := runs[i], runs[i+1]
		if a.start.IsZero() || a.seed != b.seed || a.head == b.head {
			p.problem = "records are not interleaved pairs (run each seed on both sides back to back, e.g. with pairs.sh)"
			break
		}
	}
	return p
}

func printComparison(w io.Writer, spec *benchSpec, base, head []record) {
	type key struct {
		workload string
		trace    bool
	}
	group := func(recs []record) map[key][]record {
		m := make(map[key][]record)
		for _, r := range recs {
			k := key{r.Workload, r.Trace}
			m[k] = append(m[k], r)
		}
		return m
	}
	bg, hg := group(base), group(head)
	keys := make(map[key]bool)
	for k := range bg {
		keys[k] = true
	}
	for k := range hg {
		keys[k] = true
	}
	var order []key
	for k := range keys {
		order = append(order, k)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].trace != order[j].trace {
			return !order[i].trace
		}
		return order[i].workload < order[j].workload
	})
	values := func(recs []record, name string) []float64 {
		var v []float64
		for _, r := range recs {
			if m, ok := r.Result.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
		return v
	}
	failed := func(recs []record) (n, of int) {
		for _, r := range recs {
			n += r.Result.Failed
			of += r.Result.Attempted
		}
		return n, of
	}
	for _, k := range order {
		p := pairRecords(bg[k], hg[k])
		bf, ba := failed(p.base)
		hf, ha := failed(p.head)
		fmt.Fprintf(w, "\n%s trace=%v: %d pairs; failed cells: base %d of %d, head %d of %d\n",
			k.workload, k.trace, len(p.base), bf, ba, hf, ha)
		if len(p.unpaired) > 0 {
			fmt.Fprintf(w, "  unpaired: %v\n", p.unpaired)
		}
		if p.problem != "" {
			fmt.Fprintf(w, "  no verdicts: %s\n", p.problem)
			continue
		}
		fmt.Fprintf(w, "  %-30s %-9s %11s %11s %11s %11s %11s %11s %8s %7s %s\n", "metric", "unit",
			"base_q1", "base_med", "base_q3", "head_q1", "head_med", "head_q3", "ratio", "won", "verdict")
		metrics := spec.EndToEnd
		if k.trace {
			metrics = spec.PerLayer
		}
		for _, m := range metrics {
			bound := m.Bound
			if k.trace {
				bound = math.Inf(1)
			}
			bv, hv := values(p.base, m.Name), values(p.head, m.Name)
			if len(bv) != len(p.base) || len(hv) != len(p.head) {
				continue
			}
			c := compareMetric(bv, hv, m.Better == "higher", bound)
			if c.verdict == "better" && hf > bf {
				c.verdict = "withheld: head failed more cells"
			}
			bq1, bq3 := quartiles(c.base)
			hq1, hq3 := quartiles(c.head)
			fmt.Fprintf(w, "  %-30s %-9s %11.6g %11.6g %11.6g %11.6g %11.6g %11.6g %8.4f %3d/%-3d %s\n",
				m.Name, m.Unit, bq1, median(c.base), bq3, hq1, median(c.head), hq3,
				c.ratio, c.won, c.pairs, c.verdict)
		}
	}
}
