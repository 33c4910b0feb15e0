package timeseries

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentScrape drives the single-owner write path while reader
// goroutines scrape snapshots, mirroring the simulator loop plus debug HTTP
// handlers. Run with -race; correctness here is "no torn reads, snapshots
// internally consistent".
func TestConcurrentScrape(t *testing.T) {
	c := newSimCol(1, 16)
	h := c.Histogram("lat")
	r := c.Ratio("blocking")
	g := c.Gauge("load")
	c.OnSeal(func(end float64) { g.Set(end) })

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, s := range c.Snapshots(8) {
					hv, ok := s.Hist("lat")
					if !ok {
						t.Error("snapshot missing series")
						return
					}
					if hv.Count > 0 && (hv.Min > hv.Max || hv.P50 > hv.Max) {
						t.Errorf("inconsistent snapshot: %+v", hv)
						return
					}
				}
				c.Latest()
				c.Len()
				c.TotalSealed()
				c.SinkErr()
			}
		}()
	}

	// Owner goroutine: observe and advance through 200 windows.
	for w := 0; w < 200; w++ {
		for i := 0; i < 50; i++ {
			h.Observe(float64(w*50+i+1) * 1e-6)
			r.Observe(i%7 == 0)
		}
		c.advance(float64(w + 1))
	}
	stop.Store(true)
	wg.Wait()

	if c.TotalSealed() != 200 {
		t.Fatalf("sealed %d windows, want 200", c.TotalSealed())
	}
}
