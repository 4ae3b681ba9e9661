package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// liveHeapMB forces a garbage collection and returns the heap it found
// live, in MB. Read at fixed points of a workload, it repeats from run to
// run; a sampled peak would also depend on where the GCs happened to fall.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// minSamples is the fewest latencies an end-to-end run bases its
// percentiles on: the p95 then has at least ten samples beyond it. A run
// on a slow host measures longer rather than fewer.
const minSamples = 200

// roundsFit reports whether another round of the workload should start:
// yes while the run would end nearer to the budget by running it than by
// stopping now. At least one round always runs.
func roundsFit(done int, elapsed, budget time.Duration) bool {
	if done == 0 {
		return true
	}
	per := elapsed / time.Duration(done)
	return elapsed+per/2 < budget
}

// latHist is a fixed-size latency histogram with log-spaced buckets, 0.2%
// wide, from 1 µs to 100 s. The service workloads record hundreds of
// thousands of latencies per run; a growing slice of them would show up in
// the heap being measured.
type latHist struct {
	counts []uint64
	n      uint64
}

const (
	histMinMS  = 1e-3
	histGrowth = 1.002
)

var histBuckets = int(math.Ceil(math.Log(1e5/histMinMS)/math.Log(histGrowth))) + 1

func newLatHist() *latHist { return &latHist{counts: make([]uint64, histBuckets)} }

func (h *latHist) bucketLow(i int) float64 { return histMinMS * math.Pow(histGrowth, float64(i)) }

func (h *latHist) add(ms float64) {
	i := 0
	if ms > histMinMS {
		i = int(math.Log(ms/histMinMS) / math.Log(histGrowth))
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile interpolates linearly by rank inside the bucket holding the
// q-quantile.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var below uint64
	for i, c := range h.counts {
		if c > 0 && float64(below+c) >= rank {
			lo, hi := h.bucketLow(i), h.bucketLow(i+1)
			return lo + (hi-lo)*(rank-float64(below))/float64(c)
		}
		below += c
	}
	return h.bucketLow(len(h.counts))
}
