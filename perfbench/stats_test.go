package main

import (
	"math/rand"
	"sort"
	"testing"
)

// oracleQuantile is the nearest-rank q-quantile by definition: scan the
// sorted samples for the first one with at least q·n samples at or below it.
func oracleQuantile(sorted []int64, q float64) (int64, int) {
	n := len(sorted)
	for i, v := range sorted {
		if float64(i+1) >= q*float64(n) {
			return v, n - 1 - i
		}
	}
	return sorted[n-1], 0
}

func TestQuantileMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qs := []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(3000)
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Int63n(int64(1 + rng.Intn(1000))) // many ties
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, q := range qs {
			got, ok := quantile(xs, q)
			want, beyond := oracleQuantile(xs, q)
			if got != want {
				t.Fatalf("n=%d q=%v: quantile = %d, oracle %d", n, q, got, want)
			}
			if ok != (beyond >= minTail) {
				t.Fatalf("n=%d q=%v: reported=%v with %d samples beyond", n, q, ok, beyond)
			}
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Fatal("quantile of no samples reported")
	}
}

// TestP99NeedsTenBeyond pins the reporting rule: a p99 needs 1000 samples.
func TestP99NeedsTenBeyond(t *testing.T) {
	for n, want := range map[int]bool{999: false, 1000: true} {
		xs := make(timing, n)
		for i := range xs {
			xs[i] = int64(i)
		}
		if _, ok := xs.quantileUs(0.99); ok != want {
			t.Errorf("p99 of %d samples reported=%v, want %v", n, ok, want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {nil, 0}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestWindowedQuantile(t *testing.T) {
	// Three windows whose p99 are 989, 1978 and 98900 µs (an outlier second):
	// the median window reads 1978.
	var ws []timing
	for _, scale := range []int64{1, 2, 100} {
		w := make(timing, 1000)
		for i := range w {
			w[i] = int64(i) * scale * 1000
		}
		ws = append(ws, w)
	}
	v, n, ok := windowedQuantileUs(ws, 0.99)
	if !ok || n != 3 || v != 1978 {
		t.Fatalf("windowed p99 = %v over %d windows (ok=%v), want 1978 over 3", v, n, ok)
	}
	ws = append(ws, make(timing, 10), make(timing, 10), make(timing, 10), make(timing, 10))
	if _, _, ok := windowedQuantileUs(ws, 0.99); ok {
		t.Fatal("reported with most windows too small for a p99")
	}
}
