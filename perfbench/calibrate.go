package main

import "container/heap"

// The host this benchmark runs on is shared, and its speed drifts over
// minutes: the same passes took 12-28% more CPU time in one 10-run set
// than in another taken 50 minutes later, in step across all workloads.
// A fixed kernel of the benchmark's own, timed between passes, drifts
// with it. Averaged over ~50 s, its CPU time tracked the simulator's
// with correlation 0.97, and dividing by it cut the simulator's drift
// from 6.2% to 1.5% (coefficient of variation). The end-to-end CPU-clock
// metrics are therefore scaled by calibrationRef / (median kernel time
// of the run): they read in CPU seconds of a host running at the
// reference speed. The kernel is not program code, so a change to the
// simulator moves the metrics in full.

// calibrationRef is the kernel's median CPU time on the reference host
// (2-CPU Firecracker VM, Intel Xeon @ 2.0 GHz, linux/amd64, Go 1.24).
const calibrationRef = 0.150

// calibrationSteps fixes the kernel's work: about 0.15 s of CPU there.
const calibrationSteps = 500_000

// calEvent is one entry of the kernel's event queue.
type calEvent struct {
	at, id uint64
	load   [4]uint64
}

type calQueue []*calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calibrationKernel does a fixed amount of the kind of work a simulator
// does — pop the earliest of 256 pending events from a binary heap,
// update a table keyed by a pseudo-random value, allocate the follow-up
// event and push it — and returns a checksum of the work.
func calibrationKernel(steps int) uint64 {
	q := make(calQueue, 0, 256)
	for i := uint64(0); i < 256; i++ {
		heap.Push(&q, &calEvent{at: i, id: i})
	}
	table := make(map[uint64]uint64)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < steps; i++ {
		e := heap.Pop(&q).(*calEvent)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x%4096] += e.id
		heap.Push(&q, &calEvent{at: e.at + x%64, id: e.id, load: [4]uint64{x}})
	}
	sum := uint64(len(table))
	for k, v := range table {
		sum += k ^ v
	}
	return sum
}

// calibrate runs the kernel after a forced collection and returns its
// CPU time in seconds.
func calibrate() float64 {
	settle()
	sw := startWatch()
	calibrationSink = calibrationKernel(calibrationSteps)
	return sw.elapsed().CPU
}

// calibrationSink keeps the kernel's result live.
var calibrationSink uint64
