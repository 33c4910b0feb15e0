//go:build !race

package timeseries

import "testing"

// The race detector instruments memory accesses in ways that add allocations,
// so these regression tests only run in normal builds (same split as
// internal/core's alloc tests).

// TestDisabledAddsNoAllocs pins the "telemetry off" contract: every
// instrument call on a nil collector must cost only nil checks — zero
// allocations — so the simulator hot path can call unconditionally.
func TestDisabledAddsNoAllocs(t *testing.T) {
	var c *Collector
	h := c.Histogram("x")
	r := c.Rate("x")
	ratio := c.Ratio("x")
	g := c.Gauge("x")
	if n := testing.AllocsPerRun(200, func() {
		h.Observe(1)
		r.Inc()
		ratio.Observe(true)
		g.Set(0.5)
		c.Advance(10)
		c.Seal()
	}); n != 0 {
		t.Fatalf("disabled telemetry allocates %v per op, want 0", n)
	}
}

// TestSteadyStateObserveAllocsFree pins the hot observe path of a live
// collector: folding samples into the open window reuses the accumulator
// (the histogram counts slice persists across windows), so no per-sample
// allocations.
func TestSteadyStateObserveAllocsFree(t *testing.T) {
	c := newSimCol(1e9, 0) // one giant window: no seals during the run
	h := c.Histogram("lat")
	r := c.Rate("n")
	ratio := c.Ratio("b")
	g := c.Gauge("v")
	h.Observe(1e-3) // warm the path
	if n := testing.AllocsPerRun(200, func() {
		h.Observe(42e-6)
		r.Inc()
		ratio.Observe(false)
		g.Set(0.25)
	}); n != 0 {
		t.Fatalf("steady-state observe allocates %v per op, want 0", n)
	}
}
