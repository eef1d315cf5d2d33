package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+system CPU time from getrusage.
// On a shared host CPU time drifts far less than wall time: it does not
// count the intervals in which another tenant holds the core.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail on Linux.
		panic("getrusage: " + err.Error())
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cost is one measured interval on both clocks, in seconds.
type cost struct {
	Wall, CPU float64
}

func (c *cost) add(d cost) {
	c.Wall += d.Wall
	c.CPU += d.CPU
}

// stopwatch brackets an interval on both clocks.
type stopwatch struct {
	wall time.Time
	cpu  float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuSeconds()} }

func (s stopwatch) elapsed() cost {
	return cost{Wall: time.Since(s.wall).Seconds(), CPU: cpuSeconds() - s.cpu}
}

// settle forces a full collection so the next timed call does not pay
// for garbage left by the previous one. Callers keep it out of every
// timed interval: a collection landing inside inpg.New is what made
// set-up times jump between runs.
func settle() { runtime.GC() }

// memStats reads the runtime's heap statistics.
func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// median returns the middle value of v (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of v computed exactly
// as Python's statistics.quantiles(v, n=4) does by default (method
// "exclusive", extrapolating for tiny samples), so spreads printed here
// match a reader's own check. With fewer than two values it returns the
// single value (or 0) twice.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// tail returns the highest percentile of v that still has at least ten
// samples above it, with that percentile's rank. The sample at 0-based
// index n-11 has exactly ten larger samples. When that percentile would
// fall below the median (fewer than 20 samples), no tail has ten samples
// beyond it and the maximum is returned at rank 100.
func tail(v []float64) (value, pct float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	i := n - 11
	if 2*(i+1) < n {
		return s[n-1], 100
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
