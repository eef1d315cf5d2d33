package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer of the program,
// timed from outside. Cell groups the spans of one simulated cell (-1
// for calls that belong to no cell, such as a layer probe); Parent is
// the id of the enclosing span, 0 at the top level.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Cell    int    `json:"cell"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans in memory; nothing is written until the run ends.
// A nil *tracer records nothing, so untraced passes pay one nil check
// per call. The sweep observer runs on a runner goroutine while the
// main goroutine waits inside experiments.RunSuite, so recording is
// serialized; calls never overlap in time, which keeps the open-span
// stack a faithful parent chain.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // indexes into spans of the currently open spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, cell int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Cell: cell, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned. Spans close innermost first.
func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[h].EndNs = time.Since(t.t0).Nanoseconds()
	if n := len(t.open); n > 0 && t.open[n-1] == h {
		t.open = t.open[:n-1]
	}
}

// do runs fn inside a span.
func (t *tracer) do(name string, cell int, fn func()) {
	h := t.begin(name, cell)
	fn()
	t.end(h)
}

// write stores every span as a JSON array in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfTimes aggregates spans by name: call count, total time, and self
// time — the span's duration minus the part its direct children cover.
func (t *tracer) selfTimes() []spanTotal {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	by := make(map[string]*spanTotal)
	for _, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			by[s.Name] = st
		}
		d := s.EndNs - s.StartNs
		st.Calls++
		st.TotalNs += d
		st.SelfNs += d - child[s.ID]
	}
	out := make([]spanTotal, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNs > out[j].SelfNs })
	return out
}

type spanTotal struct {
	Name            string
	Calls           int
	TotalNs, SelfNs int64
}

// printSelfTimes writes the self-time table of the traced run.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, st := range t.selfTimes() {
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f\n", st.Name, st.Calls,
			float64(st.TotalNs)/1e6, float64(st.SelfNs)/1e6)
	}
}
