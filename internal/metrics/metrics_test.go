package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := r.Gauge("load", "current load")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g", g.Value())
	}
	// Same name returns the same instrument.
	if r.Counter("requests_total", "").Value() != 5 {
		t.Fatal("re-registration lost state")
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative add")
		}
	}()
	NewRegistry().Counter("c", "").Add(-1)
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind clash")
		}
	}()
	r.Gauge("x", "")
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid name")
		}
	}()
	NewRegistry().Counter("9bad name", "")
}

func TestHistogramObserveAndBuckets(t *testing.T) {
	var h Histogram // the zero value is ready
	for _, v := range []float64{1e-3, 1, 1, 10, 1e8} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1e-3+1+1+10+1e8 {
		t.Fatalf("sum = %g", h.Sum())
	}
	bks := h.Buckets()
	if len(bks) != 128 {
		t.Fatalf("%d buckets, want 127 bounds + +Inf", len(bks))
	}
	if bks[0].LE != 1e-7 || bks[126].LE != 1e7 || !math.IsInf(bks[127].LE, 1) {
		t.Fatalf("layout ends = %g, %g, %g", bks[0].LE, bks[126].LE, bks[127].LE)
	}
	cum := map[float64]int64{}
	for i, b := range bks {
		if i > 0 && (b.LE <= bks[i-1].LE || b.Count < bks[i-1].Count) {
			t.Fatalf("bucket %d not increasing: %+v after %+v", i, b, bks[i-1])
		}
		cum[b.LE] = b.Count
	}
	// Cumulative with le semantics: both 1s count in le=1, 1e8 only in +Inf.
	for le, want := range map[float64]int64{1e-3: 1, 1: 3, 10: 4, 1e7: 4, math.Inf(1): 5} {
		if cum[le] != want {
			t.Fatalf("le=%g count = %d, want %d", le, cum[le], want)
		}
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Fatalf("p50 = %g", q)
	}
	if q := h.Quantile(0.8); q != 10 {
		t.Fatalf("p80 = %g", q)
	}
	if q := h.Quantile(1); !math.IsInf(q, 1) {
		t.Fatalf("p100 = %g, want +Inf", q)
	}
}

// TestDecadeEdgesExact pins the layout's decade edges: an observation of
// exactly 10^d lands in the bucket whose bound is 10^d (not one up), and a
// sample above the old 10 s ceiling still yields a finite quantile.
func TestDecadeEdgesExact(t *testing.T) {
	for d := -7; d <= 7; d++ {
		var h Histogram
		v := math.Pow10(d)
		h.Observe(v)
		if q := h.Quantile(1); q != v {
			t.Fatalf("observing %g gives Quantile(1) = %v, want %g", v, q, v)
		}
	}
	var h Histogram
	h.Observe(11)
	if q := h.Quantile(0.99); math.IsInf(q, 0) || q < 11 {
		t.Fatalf("11 s sample gives p99 = %g, want a finite bound ≥ 11", q)
	}
}

// TestQuantileAccuracy checks bucketed quantiles against the exact
// quantiles from package stats on seeded latency-shaped streams: the
// estimate never falls below the ⌈q·n⌉-th order statistic and overshoots
// the exact quantile by at most one bucket ratio, 10^(1/9) ≈ 1.29.
func TestQuantileAccuracy(t *testing.T) {
	const ratio = 1.2916 // 10^(1/9), rounded up
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		var h Histogram
		xs := make([]float64, 0, 5000)
		for i := 0; i < 5000; i++ {
			// Log-uniform over 2µs..200ms.
			v := 2e-6 * math.Pow(1e5, rng.Float64())
			xs = append(xs, v)
			h.Observe(v)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.50, 0.95, 0.99} {
			est := h.Quantile(q)
			rank := int(math.Ceil(q * float64(len(sorted))))
			if lo := sorted[rank-1]; est < lo*0.9999 {
				t.Fatalf("trial %d p%g: estimate %g below order statistic %g", trial, 100*q, est, lo)
			}
			// Slack for the gap between the order statistic and the
			// interpolated exact quantile.
			if exact := stats.Quantile(xs, q); est > exact*ratio*1.01 {
				t.Fatalf("trial %d p%g: estimate %g exceeds exact %g × bucket ratio", trial, 100*q, est, exact)
			}
		}
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("phase_seconds", "phase time")
	start := tm.Start()
	time.Sleep(time.Millisecond)
	tm.Stop(start)
	if tm.Hist().Count() != 1 {
		t.Fatal("no observation")
	}
	if tm.Hist().Sum() <= 0 {
		t.Fatal("non-positive duration")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c", "")
	tm := r.Timer("d", "")
	if c != nil || g != nil || h != nil || tm != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	// All no-ops, no panics.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tm.Stop(tm.Start())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	if h.Buckets() != nil || h.Quantile(0.5) != 0 || tm.Hist() != nil {
		t.Fatal("nil reads not zero")
	}
	if !tm.Start().IsZero() {
		t.Fatal("nil timer read the clock")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil registry wrote output")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Concurrent registration of the same names plus updates.
			c := r.Counter("ops_total", "")
			g := r.Gauge("level", "")
			h := r.Histogram("size", "")
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 7))
			}
		}()
	}
	wg.Wait()
	if n := r.Counter("ops_total", "").Value(); n != workers*per {
		t.Fatalf("counter = %d, want %d", n, workers*per)
	}
	if v := r.Gauge("level", "").Value(); v != workers*per {
		t.Fatalf("gauge = %g", v)
	}
	if n := r.Histogram("size", "").Count(); n != workers*per {
		t.Fatalf("histogram count = %d", n)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "total requests").Add(3)
	r.Gauge("rho", "network load").Set(0.25)
	h := r.Histogram("lat_seconds", "latency")
	h.Observe(0.05)
	h.Observe(2)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP reqs_total total requests",
		"# TYPE reqs_total counter",
		"reqs_total 3",
		"# TYPE rho gauge",
		"rho 0.25",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1e-07"} 0`,
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="10"} 2`,
		`lat_seconds_bucket{le="1e+07"} 2`,
		`lat_seconds_bucket{le="+Inf"} 2`,
		"lat_seconds_sum 2.05",
		"lat_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Every non-comment line is "name[{labels}] value", and the histogram
	// renders the whole shared layout.
	buckets := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Fatalf("malformed line %q", line)
		}
		if strings.HasPrefix(line, "lat_seconds_bucket{") {
			buckets++
		}
	}
	if buckets != 128 {
		t.Fatalf("%d bucket lines, want 128", buckets)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Inc()
	h := r.Histogram("b_seconds", "")
	h.Observe(1)
	h.Observe(math.Inf(1)) // non-finite sum must not break encoding
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snaps []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snaps); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(snaps) != 2 {
		t.Fatalf("got %d metrics", len(snaps))
	}
	if snaps[0]["name"] != "a_total" || snaps[0]["value"].(float64) != 1 {
		t.Fatalf("counter snapshot = %v", snaps[0])
	}
	if snaps[1]["count"].(float64) != 2 {
		t.Fatalf("histogram snapshot = %v", snaps[1])
	}
	if _, ok := snaps[1]["sum"]; ok {
		t.Fatal("infinite sum should be omitted")
	}
	// The typed form round-trips the layout, string-encoded +Inf included.
	var typed []MetricSnapshot
	if err := json.Unmarshal(buf.Bytes(), &typed); err != nil {
		t.Fatal(err)
	}
	bks := typed[1].Buckets
	if len(bks) != 128 || !math.IsInf(bks[127].LE, 1) || bks[127].Count != 2 {
		t.Fatalf("buckets = %d, last %+v", len(bks), bks[len(bks)-1])
	}
	if want := h.Buckets(); !reflect.DeepEqual(bks[:127], want[:127]) {
		t.Fatal("finite buckets changed in the round trip")
	}
	if p50 := typed[1].P50; p50 == nil || *p50 != 1 {
		t.Fatalf("p50 = %v, want 1", p50)
	}
}

func TestWriteFileBySuffix(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Inc()
	dir := t.TempDir()

	prom := filepath.Join(dir, "m.prom")
	if err := r.WriteFile(prom); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(prom)
	if !strings.Contains(string(b), "x_total 1") {
		t.Fatalf("prom output: %s", b)
	}

	js := filepath.Join(dir, "m.json")
	if err := r.WriteFile(js); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(js)
	var v []map[string]any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("json output invalid: %v", err)
	}
}
