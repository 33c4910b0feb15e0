// Package metrics is the dependency-free instrumentation layer for the
// routing engine and simulator. It provides atomic counters, gauges,
// histograms over one fixed log-spaced bucket layout, and phase timers,
// collected in a Registry that renders snapshots in the Prometheus text
// exposition format or as JSON.
//
// Two properties make it safe to wire into hot paths unconditionally:
//
//   - Nil safety: every method on a nil instrument (and on a nil *Registry)
//     is a no-op, so instrumentation is off by default and costs only a nil
//     check when disabled. Packages expose EnableMetrics(*Registry) and keep
//     nil instruments until it is called.
//   - Concurrency safety: all updates are lock-free atomics; snapshots may
//     race with updates and are only point-in-time consistent per value,
//     which is the usual Prometheus contract.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer. The zero value is ready;
// a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n < 0 panics: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	if n < 0 {
		panic("metrics: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float value that can go up and down. A nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the value by d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// The one bucket layout every histogram shares: bucketsPerDecade log-spaced
// upper bounds per factor of 10 from 10^minDecade to 10^maxDecade (127
// bounds), plus the implicit +Inf overflow bucket. It covers durations from
// 100 ns as well as counts and ratios up to 10⁷; a bucketed quantile
// over-estimates the exact one by at most 10^(1/9) ≈ 1.29×.
const (
	bucketsPerDecade = 9
	minDecade        = -7
	maxDecade        = 7
	numBounds        = (maxDecade-minDecade)*bucketsPerDecade + 1
)

// bounds holds the layout's upper bounds, each computed directly as
// 10^d · 10^(j/9) so every decade edge is exact: an observation of exactly
// 10µs lands in the le="1e-05" bucket.
var bounds = func() []float64 {
	b := make([]float64, numBounds)
	for i := range b {
		d, j := i/bucketsPerDecade, i%bucketsPerDecade
		b[i] = math.Pow10(minDecade+d) * math.Pow(10, float64(j)/bucketsPerDecade)
	}
	return b
}()

// Histogram counts observations into the shared bucket layout (le
// semantics) and tracks the total sum and count. The zero value is ready; a
// nil *Histogram is a no-op. A Histogram must not be copied after first use.
type Histogram struct {
	counts  [numBounds + 1]atomic.Int64
	n       atomic.Int64
	sumBits atomic.Uint64
}

// Observe folds one sample into the histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(bounds, v)].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns Sum/Count (0 when empty).
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// Bucket is one cumulative histogram bucket: the count of observations ≤ LE.
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON renders LE as a string so the +Inf overflow bucket stays
// valid JSON (encoding/json rejects infinite numbers).
func (b Bucket) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, fmtFloat(b.LE), b.Count)), nil
}

// UnmarshalJSON parses the string-encoded LE back ("+Inf" included).
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    string `json:"le"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	le, err := strconv.ParseFloat(raw.LE, 64)
	if err != nil {
		return fmt.Errorf("metrics: bad bucket bound %q: %w", raw.LE, err)
	}
	b.LE, b.Count = le, raw.Count
	return nil
}

// Buckets returns the cumulative buckets, ending with the +Inf bucket whose
// count equals Count().
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	out := make([]Bucket, len(h.counts))
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.Inf(1)
		if i < numBounds {
			le = bounds[i]
		}
		out[i] = Bucket{LE: le, Count: cum}
	}
	return out
}

// Quantile returns an upper-bound estimate of the q-quantile (0 ≤ q ≤ 1):
// the smallest bucket bound whose cumulative count covers q. Returns +Inf
// when the quantile lands in the overflow bucket, 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < numBounds {
				return bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// Timer observes phase durations (in seconds) into a histogram. Use as
//
//	defer t.Stop(t.Start())
//
// or split Start/Stop around the phase. A nil *Timer is a no-op and its
// Start avoids the clock read entirely.
type Timer struct {
	h *Histogram
}

// Start returns the phase start time (zero for a nil timer).
func (t *Timer) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Stop records the elapsed time since start. A zero start (nil timer at
// Start time) records nothing.
func (t *Timer) Stop(start time.Time) {
	if t == nil || start.IsZero() {
		return
	}
	t.h.Observe(time.Since(start).Seconds())
}

// Observe records an already-measured duration — the hook for callers that
// stamp timestamps themselves (stage attribution accumulates nanoseconds in
// request state and folds them in once at the end of the request).
func (t *Timer) Observe(d time.Duration) {
	if t == nil || d < 0 {
		return
	}
	t.h.Observe(d.Seconds())
}

// Hist exposes the underlying histogram (nil for a nil timer).
func (t *Timer) Hist() *Histogram {
	if t == nil {
		return nil
	}
	return t.h
}

// metric kinds in exposition output.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

type metric struct {
	name string
	help string
	kind string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry names and collects instruments. A nil *Registry hands out nil
// instruments, so a single conditional at setup time turns the whole layer
// on or off.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
	order  []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// lookup registers a new metric under name (constructing its instrument
// under the registry lock) or returns the existing one, panicking on a kind
// clash (a programming error, like Prometheus client libraries treat it).
func (r *Registry) lookup(name, help, kind string) *metric {
	if !validName(name) {
		panic("metrics: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		m.h = &Histogram{}
	}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the counter registered under name, creating it on first
// use. Nil receiver → nil counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter).c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge).g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram).h
}

// Timer returns a phase timer whose histogram (of seconds) is registered
// under name.
func (r *Registry) Timer(name, help string) *Timer {
	if r == nil {
		return nil
	}
	return &Timer{h: r.Histogram(name, help)}
}

// snapshotOrder returns the metrics in registration order.
func (r *Registry) snapshotOrder() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.order...)
}

func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, m := range r.snapshotOrder() {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %s\n", m.name, fmtFloat(m.g.Value()))
		case kindHistogram:
			for _, bk := range m.h.Buckets() {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, fmtFloat(bk.LE), bk.Count)
			}
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, fmtFloat(m.h.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, m.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// MetricSnapshot is the JSON form of one metric.
type MetricSnapshot struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Help string `json:"help,omitempty"`
	// Counter/gauge value.
	Value *float64 `json:"value,omitempty"`
	// Histogram summary.
	Count   *int64   `json:"count,omitempty"`
	Sum     *float64 `json:"sum,omitempty"`
	Mean    *float64 `json:"mean,omitempty"`
	P50     *float64 `json:"p50,omitempty"`
	P99     *float64 `json:"p99,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// fptr returns a pointer to v, or nil when v is not finite — non-finite
// values are omitted from the JSON snapshot rather than breaking it.
func fptr(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// Snapshot captures all metrics in registration order. A nil registry
// yields nil.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	var out []MetricSnapshot
	for _, m := range r.snapshotOrder() {
		s := MetricSnapshot{Name: m.name, Type: m.kind, Help: m.help}
		switch m.kind {
		case kindCounter:
			s.Value = fptr(float64(m.c.Value()))
		case kindGauge:
			s.Value = fptr(m.g.Value())
		case kindHistogram:
			n := m.h.Count()
			s.Count = &n
			s.Sum = fptr(m.h.Sum())
			s.Mean = fptr(m.h.Mean())
			s.P50 = fptr(m.h.Quantile(0.5))
			s.P99 = fptr(m.h.Quantile(0.99))
			s.Buckets = m.h.Buckets()
		}
		out = append(out, s)
	}
	return out
}

// WriteJSON renders the snapshot as an indented JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteFile writes the registry to path, choosing the format by suffix:
// ".json" → JSON snapshot, anything else → Prometheus text exposition.
// A nil registry still writes a valid (empty) document.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = r.WriteJSON(f)
	} else {
		err = r.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
