package timeseries

import "repro/internal/metrics"

// Snapshot is one sealed window: nominal [Start, End) boundaries plus the
// per-series values, each slice sorted by series name so renderings are
// byte-stable. Snapshots are immutable once sealed.
type Snapshot struct {
	Window uint64  `json:"window"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`

	Hists  []HistValue  `json:"hist,omitempty"`
	Rates  []RateValue  `json:"rate,omitempty"`
	Ratios []RatioValue `json:"ratio,omitempty"`
	Gauges []GaugeValue `json:"gauge,omitempty"`
}

// Hist returns the named histogram value of the window (zero value, false
// when the series did not exist).
func (s *Snapshot) Hist(name string) (HistValue, bool) {
	for _, v := range s.Hists {
		if v.Name == name {
			return v, true
		}
	}
	return HistValue{}, false
}

// RateOf returns the named rate value of the window.
func (s *Snapshot) RateOf(name string) (RateValue, bool) {
	for _, v := range s.Rates {
		if v.Name == name {
			return v, true
		}
	}
	return RateValue{}, false
}

// RatioOf returns the named ratio value of the window.
func (s *Snapshot) RatioOf(name string) (RatioValue, bool) {
	for _, v := range s.Ratios {
		if v.Name == name {
			return v, true
		}
	}
	return RatioValue{}, false
}

// GaugeOf returns the named gauge value of the window.
func (s *Snapshot) GaugeOf(name string) (GaugeValue, bool) {
	for _, v := range s.Gauges {
		if v.Name == name {
			return v, true
		}
	}
	return GaugeValue{}, false
}

// HistValue is a histogram series over one window. Quantiles are bucketed
// upper bounds clamped to the observed Max, so they never exceed the true
// sample maximum; an empty window reports all zeros.
type HistValue struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// RateValue is a counter series over one window: the raw count and the
// count per clock second.
type RateValue struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Rate  float64 `json:"rate"`
}

// RatioValue is a guarded num/den series over one window. Value is 0 when
// Den is 0 — an empty window reports 0, never NaN.
type RatioValue struct {
	Name  string  `json:"name"`
	Num   int64   `json:"num"`
	Den   int64   `json:"den"`
	Value float64 `json:"value"`
}

// GaugeValue is a sampled-value series over one window. An unsampled window
// reports all zeros with Samples == 0.
type GaugeValue struct {
	Name    string  `json:"name"`
	Last    float64 `json:"last"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
	Samples int64   `json:"samples"`
}

// histSeries is the open-window accumulator behind a Histogram handle: the
// shared metrics.Histogram plus what a window adds on top of it — the
// window's min/max and a reset at seal. The histogram is reused across
// windows, so the steady-state Observe path allocates nothing.
type histSeries struct {
	name     string
	h        metrics.Histogram
	min, max float64
}

func (s *histSeries) observe(v float64) {
	first := s.h.Count() == 0
	if first || v < s.min {
		s.min = v
	}
	if first || v > s.max {
		s.max = v
	}
	s.h.Observe(v)
}

// value reports the window. Quantiles are clamped to the observed max,
// which also makes the overflow bucket finite.
func (s *histSeries) value() HistValue {
	v := HistValue{Name: s.name, Count: s.h.Count(), Sum: s.h.Sum(), Min: s.min, Max: s.max}
	if v.Count > 0 {
		v.Mean = v.Sum / float64(v.Count)
		v.P50 = min(s.h.Quantile(0.50), s.max)
		v.P95 = min(s.h.Quantile(0.95), s.max)
		v.P99 = min(s.h.Quantile(0.99), s.max)
	}
	return v
}

func (s *histSeries) reset() {
	s.h = metrics.Histogram{}
	s.min, s.max = 0, 0
}

type rateSeries struct {
	name string
	n    int64
}

func (s *rateSeries) value(window float64) RateValue {
	v := RateValue{Name: s.name, Count: s.n}
	if window > 0 {
		v.Rate = float64(s.n) / window
	}
	return v
}

func (s *rateSeries) reset() { s.n = 0 }

type ratioSeries struct {
	name     string
	num, den int64
}

func (s *ratioSeries) value() RatioValue {
	v := RatioValue{Name: s.name, Num: s.num, Den: s.den}
	if s.den != 0 {
		v.Value = float64(s.num) / float64(s.den)
	}
	return v
}

func (s *ratioSeries) reset() { s.num, s.den = 0, 0 }

type gaugeSeries struct {
	name string
	last float64
	min  float64
	max  float64
	sum  float64
	n    int64
}

func (s *gaugeSeries) set(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.last = v
	s.sum += v
	s.n++
}

func (s *gaugeSeries) value() GaugeValue {
	v := GaugeValue{Name: s.name, Last: s.last, Min: s.min, Max: s.max, Samples: s.n}
	if s.n > 0 {
		v.Mean = s.sum / float64(s.n)
	}
	return v
}

func (s *gaugeSeries) reset() { s.last, s.min, s.max, s.sum, s.n = 0, 0, 0, 0, 0 }

// Histogram is a handle to a windowed histogram series. Nil is a no-op.
type Histogram struct {
	c *Collector
	s *histSeries
}

// Observe folds one sample into the open window.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.c.mu.Lock()
	h.s.observe(v)
	h.c.mu.Unlock()
}

// Rate is a handle to a windowed counter series. Nil is a no-op.
type Rate struct {
	c *Collector
	s *rateSeries
}

// Add counts n events into the open window.
func (r *Rate) Add(n int64) {
	if r == nil {
		return
	}
	r.c.mu.Lock()
	r.s.n += n
	r.c.mu.Unlock()
}

// Inc counts one event into the open window.
func (r *Rate) Inc() { r.Add(1) }

// Ratio is a handle to a windowed num/den series. Nil is a no-op.
type Ratio struct {
	c *Collector
	s *ratioSeries
}

// Observe counts one denominator event, and a numerator event when hit is
// true — e.g. Observe(blocked) per offered request makes the window value
// the blocking probability.
func (r *Ratio) Observe(hit bool) {
	if r == nil {
		return
	}
	r.c.mu.Lock()
	r.s.den++
	if hit {
		r.s.num++
	}
	r.c.mu.Unlock()
}

// Gauge is a handle to a windowed sampled-value series. Nil is a no-op.
type Gauge struct {
	c *Collector
	s *gaugeSeries
}

// Set records one sample of the gauged value into the open window.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.c.mu.Lock()
	g.s.set(v)
	g.c.mu.Unlock()
}
