package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// sim returns a collector on a fresh SimClock, advancing both together.
type simCol struct {
	*Collector
	clock *SimClock
}

func newSimCol(window float64, retention int) simCol {
	clock := NewSimClock()
	return simCol{
		Collector: New(Config{Window: window, Retention: retention, Clock: clock}),
		clock:     clock,
	}
}

func (s simCol) advance(t float64) {
	s.clock.Advance(t)
	s.Collector.Advance(t)
}

func TestWindowSealingAndGaps(t *testing.T) {
	c := newSimCol(1.0, 0)
	h := c.Histogram("lat")
	r := c.Rate("events")
	ratio := c.Ratio("blocking")
	g := c.Gauge("load")

	h.Observe(0.5)
	h.Observe(0.25)
	r.Inc()
	r.Add(2)
	ratio.Observe(true)
	ratio.Observe(false)
	g.Set(0.3)
	g.Set(0.7)

	if c.Len() != 0 {
		t.Fatalf("Len before any seal = %d", c.Len())
	}
	// Advancing within the open window seals nothing.
	c.advance(0.99)
	if c.Len() != 0 {
		t.Fatalf("Len after intra-window advance = %d", c.Len())
	}
	// Jumping over three window boundaries seals three windows: the active
	// one plus two empty gap windows, keeping the curve continuous.
	c.advance(3.5)
	if c.Len() != 3 || c.TotalSealed() != 3 {
		t.Fatalf("Len=%d TotalSealed=%d, want 3, 3", c.Len(), c.TotalSealed())
	}
	snaps := c.Snapshots(0)
	if snaps[0].Window != 0 || snaps[0].Start != 0 || snaps[0].End != 1 {
		t.Fatalf("first window = %+v", snaps[0])
	}

	hv, ok := snaps[0].Hist("lat")
	if !ok || hv.Count != 2 || hv.Min != 0.25 || hv.Max != 0.5 || hv.Sum != 0.75 {
		t.Fatalf("hist window 0 = %+v", hv)
	}
	rv, _ := snaps[0].RateOf("events")
	if rv.Count != 3 || rv.Rate != 3 {
		t.Fatalf("rate window 0 = %+v", rv)
	}
	bv, _ := snaps[0].RatioOf("blocking")
	if bv.Num != 1 || bv.Den != 2 || bv.Value != 0.5 {
		t.Fatalf("ratio window 0 = %+v", bv)
	}
	gv, _ := snaps[0].GaugeOf("load")
	if gv.Last != 0.7 || gv.Min != 0.3 || gv.Max != 0.7 || gv.Mean != 0.5 || gv.Samples != 2 {
		t.Fatalf("gauge window 0 = %+v", gv)
	}

	// Gap windows carry every registered series, all zero — an empty ratio
	// window must report 0, not NaN.
	for _, s := range snaps[1:] {
		hv, ok := s.Hist("lat")
		if !ok || hv.Count != 0 || hv.P99 != 0 {
			t.Fatalf("gap hist = %+v", hv)
		}
		bv, ok := s.RatioOf("blocking")
		if !ok || bv.Den != 0 || bv.Value != 0 {
			t.Fatalf("gap ratio = %+v, want zeros", bv)
		}
		rv, _ := s.RateOf("events")
		if rv.Count != 0 || rv.Rate != 0 {
			t.Fatalf("gap rate = %+v", rv)
		}
	}

	if lat := c.Latest(); lat == nil || lat.Window != 2 {
		t.Fatalf("Latest = %+v", lat)
	}
}

func TestSealFlushesPartialWindow(t *testing.T) {
	c := newSimCol(10, 0)
	r := c.Rate("n")
	r.Inc()
	c.advance(4)
	if c.Len() != 0 {
		t.Fatal("window sealed early")
	}
	c.Seal()
	if c.Len() != 1 {
		t.Fatal("Seal did not flush the partial window")
	}
	rv, _ := c.Latest().RateOf("n")
	if rv.Count != 1 {
		t.Fatalf("partial window lost samples: %+v", rv)
	}
}

func TestRingEviction(t *testing.T) {
	const retention = 4
	c := newSimCol(1, retention)
	r := c.Rate("w")
	for i := 0; i < 9; i++ {
		r.Add(int64(i)) // window i carries count i
		c.advance(float64(i + 1))
	}
	if c.Len() != retention {
		t.Fatalf("Len = %d, want %d", c.Len(), retention)
	}
	if c.TotalSealed() != 9 || c.Evicted() != 5 {
		t.Fatalf("TotalSealed=%d Evicted=%d, want 9, 5", c.TotalSealed(), c.Evicted())
	}
	snaps := c.Snapshots(0)
	for i, s := range snaps {
		wantWin := uint64(5 + i)
		rv, _ := s.RateOf("w")
		if s.Window != wantWin || rv.Count != int64(wantWin) {
			t.Fatalf("retained[%d] = window %d count %d, want window %d", i, s.Window, rv.Count, wantWin)
		}
	}
	// last=N truncates from the oldest side.
	last2 := c.Snapshots(2)
	if len(last2) != 2 || last2[0].Window != 7 || last2[1].Window != 8 {
		t.Fatalf("Snapshots(2) = %v", last2)
	}
}

// TestQuantileAccuracy checks what a window adds to the shared histogram's
// quantiles: they are clamped to the observed max, so they never exceed the
// true sample maximum and stay finite even when the rank lands in the
// overflow bucket. Accuracy against exact quantiles is pinned in package
// metrics, which owns the bucket layout.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		c := newSimCol(1, 0)
		h := c.Histogram("lat")
		for i := 0; i < 5000; i++ {
			// Latency-shaped: log-uniform over 2µs..200ms.
			h.Observe(2e-6 * math.Pow(1e5, rng.Float64()))
		}
		c.advance(1)
		hv, _ := c.Latest().Hist("lat")
		if !(hv.Min <= hv.P50 && hv.P50 <= hv.P95 && hv.P95 <= hv.P99 && hv.P99 <= hv.Max) {
			t.Fatalf("trial %d: quantiles out of order or above max: %+v", trial, hv)
		}
	}
	// One sample inside a bucket, one past the layout's top: the bucket
	// bounds exceed the max, so both windows report the max itself.
	for _, v := range []float64{1.1, 1e8} {
		c := newSimCol(1, 0)
		c.Histogram("lat").Observe(v)
		c.advance(1)
		if hv, _ := c.Latest().Hist("lat"); hv.P50 != v || hv.P99 != v {
			t.Fatalf("single sample %g: p50 %g p99 %g, want both clamped to max", v, hv.P50, hv.P99)
		}
	}
}

func TestSeriesDedupeByName(t *testing.T) {
	c := newSimCol(1, 0)
	a := c.Rate("same")
	b := c.Rate("same")
	a.Inc()
	b.Inc()
	c.advance(1)
	rv, _ := c.Latest().RateOf("same")
	if rv.Count != 2 {
		t.Fatalf("duplicate registration split the series: %+v", rv)
	}
	if len(c.Latest().Rates) != 1 {
		t.Fatalf("series duplicated: %v", c.Latest().Rates)
	}
}

func TestSnapshotSeriesSorted(t *testing.T) {
	c := newSimCol(1, 0)
	c.Rate("zeta")
	c.Rate("alpha")
	c.Gauge("mid")
	c.Gauge("aaa")
	c.advance(1)
	s := c.Latest()
	if s.Rates[0].Name != "alpha" || s.Rates[1].Name != "zeta" {
		t.Fatalf("rates not sorted: %v", s.Rates)
	}
	if s.Gauges[0].Name != "aaa" || s.Gauges[1].Name != "mid" {
		t.Fatalf("gauges not sorted: %v", s.Gauges)
	}
}

type failingSink struct{ calls int }

func (f *failingSink) WriteSnapshot(*Snapshot) error {
	f.calls++
	return errors.New("disk full")
}

func TestSinkErrorLatches(t *testing.T) {
	c := newSimCol(1, 0)
	sink := &failingSink{}
	c.SetSink(sink)
	c.advance(5)
	if c.SinkErr() == nil {
		t.Fatal("sink error not surfaced")
	}
	if sink.calls != 1 {
		t.Fatalf("failed sink called %d times, want 1 (first error latches)", sink.calls)
	}
	// The ring still fills even though the sink is dead.
	if c.Len() != 5 {
		t.Fatalf("Len = %d after sink failure", c.Len())
	}
}

type countingSink struct{ snaps []Snapshot }

func (c *countingSink) WriteSnapshot(s *Snapshot) error {
	c.snaps = append(c.snaps, *s)
	return nil
}

func TestSinkSeesEvictedWindows(t *testing.T) {
	c := newSimCol(1, 2)
	sink := &countingSink{}
	c.SetSink(sink)
	r := c.Rate("n")
	for i := 0; i < 7; i++ {
		r.Inc()
		c.advance(float64(i + 1))
	}
	if c.Len() != 2 {
		t.Fatalf("ring Len = %d", c.Len())
	}
	// Every sealed window reached the sink before eviction, so the full
	// curve survives a bounded ring.
	if len(sink.snaps) != 7 {
		t.Fatalf("sink saw %d windows, want 7", len(sink.snaps))
	}
	for i, s := range sink.snaps {
		if s.Window != uint64(i) {
			t.Fatalf("sink window %d out of order: %d", i, s.Window)
		}
	}
}

func TestOnSealProbeLandsInClosingWindow(t *testing.T) {
	c := newSimCol(1, 0)
	g := c.Gauge("probe")
	var ends []float64
	c.OnSeal(func(end float64) {
		ends = append(ends, end)
		g.Set(end) // public API from inside a probe must not deadlock
	})
	c.advance(3)
	if len(ends) != 3 || ends[0] != 1 || ends[2] != 3 {
		t.Fatalf("probe end times = %v", ends)
	}
	for i, s := range c.Snapshots(0) {
		gv, _ := s.GaugeOf("probe")
		if gv.Samples != 1 || gv.Last != float64(i+1) {
			t.Fatalf("window %d probe value = %+v", i, gv)
		}
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	h := c.Histogram("x")
	r := c.Rate("x")
	ratio := c.Ratio("x")
	g := c.Gauge("x")
	h.Observe(1)
	r.Inc()
	r.Add(5)
	ratio.Observe(true)
	g.Set(1)
	c.OnSeal(func(float64) { t.Fatal("probe on nil collector") })
	c.SetSink(&countingSink{})
	c.Advance(100)
	c.Tick()
	c.Seal()
	if c.Len() != 0 || c.TotalSealed() != 0 || c.Evicted() != 0 || c.Window() != 0 {
		t.Fatal("nil collector reported state")
	}
	if c.Snapshots(10) != nil || c.Latest() != nil || c.SinkErr() != nil {
		t.Fatal("nil collector returned data")
	}
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero window": {Window: 0, Clock: NewSimClock()},
		"neg window":  {Window: -1, Clock: NewSimClock()},
		"nil clock":   {Window: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: New did not panic", name)
				}
			}()
			New(cfg)
		}()
	}
}
