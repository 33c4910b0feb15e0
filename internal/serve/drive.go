package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// DriveConfig parameterises Drive, the HTTP client-side load generator
// behind `wdmd -drive` (the CI smoke drives a live daemon through its real
// HTTP surface, exercising the JSON encode/decode path end to end).
type DriveConfig struct {
	// Requests is the total operation count across all clients.
	Requests int
	// Clients is the number of concurrent HTTP clients (16 if 0).
	Clients int
	// Seed makes the workload deterministic per client (Seed + client).
	Seed int64
	// MaxLive caps each client's live connections (32 if 0).
	MaxLive int
	// Nodes is the served network's node count (for endpoint draws).
	Nodes int
}

func (c *DriveConfig) clients() int {
	if c.Clients > 0 {
		return c.Clients
	}
	return 16
}

func (c *DriveConfig) maxLive() int {
	if c.MaxLive > 0 {
		return c.MaxLive
	}
	return 32
}

// DriveReport aggregates one HTTP drive run.
type DriveReport struct {
	Requests   int     `json:"requests"`
	Clients    int     `json:"clients"`
	Provisions int64   `json:"provisions"`
	Accepted   int64   `json:"accepted"`
	Blocked    int64   `json:"blocked"`
	Teardowns  int64   `json:"teardowns"`
	Errors     int64   `json:"errors"`
	Blocking   float64 `json:"blocking_probability"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	Elapsed    float64 `json:"elapsed_seconds"`
}

func (r DriveReport) String() string {
	return fmt.Sprintf(
		"drive: %d requests, %d clients: %d provisions (%d accepted, %d blocked, blocking %.4f), "+
			"%d teardowns, %d transport errors, p50 %.1fµs p99 %.1fµs over %.2fs",
		r.Requests, r.Clients, r.Provisions, r.Accepted, r.Blocked, r.Blocking,
		r.Teardowns, r.Errors, r.P50Micros, r.P99Micros, r.Elapsed)
}

// post sends one JSON request and decodes the daemon's response.
func post(hc *http.Client, url string, req Request) (Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return Response{}, err
	}
	httpResp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return Response{}, err
	}
	defer func() { _ = httpResp.Body.Close() }()
	if httpResp.StatusCode != http.StatusOK {
		return Response{}, fmt.Errorf("%s: HTTP %d", url, httpResp.StatusCode)
	}
	var resp Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// Drive hammers a live daemon at baseURL (e.g. "http://localhost:9101")
// over HTTP with cfg.Clients concurrent seeded clients, then tears down
// every connection it still owns. It returns an error on any transport
// failure or non-200 — the smoke test's "zero blocked-forever requests"
// gate is simply that every request got a well-formed answer.
func Drive(baseURL string, cfg DriveConfig) (DriveReport, error) {
	var (
		next    atomic.Int64
		lat     metrics.Histogram
		prov    atomic.Int64
		acc     atomic.Int64
		blocked atomic.Int64
		tears   atomic.Int64
		errs    atomic.Int64
	)
	var firstErr atomic.Pointer[error]
	fail := func(err error) {
		errs.Add(1)
		e := err
		firstErr.CompareAndSwap(nil, &e)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients(); c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			hc := &http.Client{Timeout: 30 * time.Second}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(client)))
			var live []int64
			var k int64
			for {
				n := next.Add(1)
				if n > int64(cfg.Requests) {
					break
				}
				t0 := time.Now()
				if len(live) >= cfg.maxLive() || (len(live) > 0 && rng.Float64() < 0.45) {
					id := live[0]
					live = live[1:]
					if _, err := post(hc, baseURL+"/teardown", Request{ID: id}); err != nil {
						fail(err)
						return
					}
					tears.Add(1)
				} else {
					s := rng.Intn(cfg.Nodes)
					d := rng.Intn(cfg.Nodes - 1)
					if d >= s {
						d++
					}
					k++
					id := int64(client)<<32 | k
					resp, err := post(hc, baseURL+"/provision", Request{ID: id, Src: s, Dst: d})
					if err != nil {
						fail(err)
						return
					}
					prov.Add(1)
					if resp.Accepted {
						acc.Add(1)
						live = append(live, id)
					} else {
						blocked.Add(1)
					}
				}
				lat.Observe(time.Since(t0).Seconds())
			}
			for _, id := range live {
				if _, err := post(hc, baseURL+"/teardown", Request{ID: id}); err != nil {
					fail(err)
					return
				}
				tears.Add(1)
			}
		}(c)
	}
	wg.Wait()

	rep := DriveReport{
		Requests:   cfg.Requests,
		Clients:    cfg.clients(),
		Provisions: prov.Load(),
		Accepted:   acc.Load(),
		Blocked:    blocked.Load(),
		Teardowns:  tears.Load(),
		Errors:     errs.Load(),
		P50Micros:  lat.Quantile(0.50) * 1e6,
		P99Micros:  lat.Quantile(0.99) * 1e6,
		Elapsed:    time.Since(start).Seconds(),
	}
	if rep.Provisions > 0 {
		rep.Blocking = float64(rep.Blocked) / float64(rep.Provisions)
	}
	if p := firstErr.Load(); p != nil {
		return rep, *p
	}
	return rep, nil
}
