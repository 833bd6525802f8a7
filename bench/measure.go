package main

import (
	"container/heap"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method (Python's statistics.quantiles(xs, n=4)), which is
// what the driver applies to the per-run values. Fewer than two samples
// have no spread: all three are the sample itself (0 when empty).
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// iqrShare is the interquartile distance as a share of the median — the
// spread figure the driver holds against each metric's bound.
func iqrShare(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// heapReader reads the allocator's counters through runtime/metrics, which
// (unlike ReadMemStats) does not stop the world, so it is safe at the edges
// of a timed window.
type heapReader struct {
	s      [3]metrics.Sample
	forced uint64 // collections liveHeap has forced
}

func newHeapReader() *heapReader {
	r := &heapReader{}
	r.s[0].Name = "/gc/heap/allocs:objects"
	r.s[1].Name = "/memory/classes/heap/objects:bytes"
	r.s[2].Name = "/gc/cycles/total:gc-cycles"
	r.read() // first Read sizes the runtime's internal tables
	return r
}

func (r *heapReader) read() (allocObjects, heapBytes, gcCycles uint64) {
	metrics.Read(r.s[:])
	return r.s[0].Value.Uint64(), r.s[1].Value.Uint64(), r.s[2].Value.Uint64()
}

// liveHeap forces two collections and returns the bytes of heap objects
// that survive them. runtime.GC returns only after the cycle's sweep has
// finished, so the figure holds no dead objects; the second cycle empties
// the sync.Pool victim caches the first one filled.
func (r *heapReader) liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	r.forced += 2
	_, b, _ := r.read()
	return b
}

// calibHeap is the calibration kernel's priority queue.
type calibHeap []uint64

func (h calibHeap) Len() int           { return len(h) }
func (h calibHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h calibHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calibHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *calibHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// calibOps is the fixed amount of work of one calibration pass, and
// calibPasses how many passes one calibration makes.
const (
	calibOps    = 1 << 20
	calibPasses = 31
)

// calibrate runs the machine-speed yardstick: a xorshift generator
// replacing the minimum of a 1024-entry container/heap, no simulator code
// and no allocation. It returns the median pass in ns per replace-min.
// The sandbox's speed wanders by a quarter within a second, so one short
// pass says little; the median of a quarter-second of passes is what two
// runs can be compared by.
func calibrate(quick bool) float64 {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := make(calibHeap, 0, 1024)
	for i := 0; i < 1024; i++ {
		heap.Push(&h, next())
	}
	passes := make([]float64, calibPasses)
	if quick {
		passes = passes[:3]
	}
	for p := range passes {
		t0 := time.Now()
		for i := 0; i < calibOps; i++ {
			h[0] = next()
			heap.Fix(&h, 0)
		}
		passes[p] = float64(time.Since(t0).Nanoseconds()) / calibOps
	}
	calibSink = h[0]
	return median(passes)
}

// calibSink keeps the kernel's result observable so the loop is not dead.
var calibSink uint64
