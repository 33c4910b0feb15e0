package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 over fewer than 1000 samples is an extreme value, not a
// percentile.
const minTail = 10

// quantile returns the q-quantile of sorted (ascending) by the nearest-rank
// rule — the smallest sample with at least q·n samples at or below it — and
// whether at least minTail samples lie beyond it.
func quantile(sorted []int64, q float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], n-1-rank >= minTail
}

// timing is a set of kept latency samples in nanoseconds.
type timing []int64

func (t timing) sorted() timing {
	s := append(timing(nil), t...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantileUs is quantile in microseconds over an already sorted timing.
func (t timing) quantileUs(q float64) (float64, bool) {
	v, ok := quantile(t, q)
	return float64(v) / 1e3, ok
}

func (t timing) meanUs() float64 {
	if len(t) == 0 {
		return 0
	}
	var sum int64
	for _, v := range t {
		sum += v
	}
	return float64(sum) / float64(len(t)) / 1e3
}

// windowedQuantileUs is the median over windows of each window's
// q-quantile, in microseconds, counting only windows where the quantile is
// reportable. A pooled tail quantile is set by the few worst seconds of a
// run, which on a shared host come from other tenants; the median window is
// not. It also returns how many windows were reportable; ok needs at least
// three, and at least half of all windows.
func windowedQuantileUs(windows []timing, q float64) (v float64, n int, ok bool) {
	var per []float64
	for _, w := range windows {
		if x, ok := w.sorted().quantileUs(q); ok {
			per = append(per, x)
		}
	}
	return median(per), len(per), len(per) >= 3 && 2*len(per) >= len(windows)
}

// median of a small set of floats (set-up repetitions, per-pass rates).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
