package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// SoakConfig parameterises RunSoak, the in-process load harness behind
// `wdmd -soak` and the CI soak gate.
type SoakConfig struct {
	// Requests is the total operation count across all clients.
	Requests int
	// Clients is the number of concurrent client goroutines (16 if 0).
	Clients int
	// Seed makes the workload deterministic: client i draws from
	// rand.New(rand.NewSource(Seed + i)).
	Seed int64
	// MaxLive caps each client's live connections; above it the client
	// tears down its oldest before provisioning (32 if 0).
	MaxLive int
	// RerouteEvery issues a reroute of a random live connection every n-th
	// operation per client (0 disables reroutes).
	RerouteEvery int
	// TeardownFrac is the probability a client with live connections issues
	// a teardown instead of a provision (0.45 if 0; negative disables
	// probabilistic teardowns). Without churn the network saturates and the
	// tail of the soak measures only blocking.
	TeardownFrac float64
	// Drain tears down every remaining connection after the load phase and
	// runs the engine's oracle audit.
	Drain bool
}

func (c *SoakConfig) teardownFrac() float64 {
	switch {
	case c.TeardownFrac > 0:
		return c.TeardownFrac
	case c.TeardownFrac < 0:
		return 0
	}
	return 0.45
}

func (c *SoakConfig) clients() int {
	if c.Clients > 0 {
		return c.Clients
	}
	return 16
}

func (c *SoakConfig) maxLive() int {
	if c.MaxLive > 0 {
		return c.MaxLive
	}
	return 32
}

// SoakReport aggregates one soak run.
type SoakReport struct {
	Requests   int     `json:"requests"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	Provisions int64   `json:"provisions"`
	Accepted   int64   `json:"accepted"`
	Blocked    int64   `json:"blocked"`
	Teardowns  int64   `json:"teardowns"`
	Reroutes   int64   `json:"reroutes"`
	Blocking   float64 `json:"blocking_probability"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	Elapsed    float64 `json:"elapsed_seconds"`
	Throughput float64 `json:"requests_per_second"`
	Epochs     uint64  `json:"epochs"`
	Conflicts  int64   `json:"conflicts"`
	Retries    int64   `json:"retries"`
	Drained    bool    `json:"drained"`
}

func (r SoakReport) String() string {
	return fmt.Sprintf(
		"soak: %d requests, %d clients, seed %d: %d provisions (%d accepted, %d blocked, blocking %.4f), "+
			"%d teardowns, %d reroutes, p50 %.1fµs p99 %.1fµs, %.0f req/s over %.2fs, "+
			"%d epochs, %d conflicts, %d retries",
		r.Requests, r.Clients, r.Seed, r.Provisions, r.Accepted, r.Blocked, r.Blocking,
		r.Teardowns, r.Reroutes, r.P50Micros, r.P99Micros, r.Throughput, r.Elapsed,
		r.Epochs, r.Conflicts, r.Retries)
}

// RunSoak hammers a started engine with cfg.Requests seeded mixed
// operations from cfg.Clients goroutines, then (optionally) drains every
// live connection and audits. Work is claimed from a shared atomic counter,
// so the interleaving is racy on purpose while each client's random choices
// stay deterministic. Connection IDs are client<<32|k — unique across
// clients by construction.
func RunSoak(e *Engine, cfg SoakConfig) (SoakReport, error) {
	var (
		next    atomic.Int64
		lat     metrics.Histogram // atomic; shared across clients
		prov    atomic.Int64
		acc     atomic.Int64
		blocked atomic.Int64
		tears   atomic.Int64
		routes  atomic.Int64
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients(); c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(client)))
			var live []int64
			var k int64
			for {
				n := next.Add(1)
				if n > int64(cfg.Requests) {
					break
				}
				t0 := time.Now()
				switch {
				case cfg.RerouteEvery > 0 && n%int64(cfg.RerouteEvery) == 0 && len(live) > 0:
					id := live[rng.Intn(len(live))]
					e.Reroute(id)
					routes.Add(1)
				case len(live) >= cfg.maxLive() ||
					(len(live) > 0 && rng.Float64() < cfg.teardownFrac()):
					id := live[0]
					live = live[1:]
					e.Teardown(id)
					tears.Add(1)
				default:
					s := rng.Intn(e.Nodes())
					d := rng.Intn(e.Nodes() - 1)
					if d >= s {
						d++
					}
					k++
					id := int64(client)<<32 | k
					resp := e.Provision(Request{ID: id, Src: s, Dst: d})
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
			// Release this client's tail so Drain sees only what the load
			// phase intentionally left behind.
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := SoakReport{
		Requests:   cfg.Requests,
		Clients:    cfg.clients(),
		Seed:       cfg.Seed,
		Provisions: prov.Load(),
		Accepted:   acc.Load(),
		Blocked:    blocked.Load(),
		Teardowns:  tears.Load(),
		Reroutes:   routes.Load(),
		P50Micros:  lat.Quantile(0.50) * 1e6,
		P99Micros:  lat.Quantile(0.99) * 1e6,
		Elapsed:    elapsed.Seconds(),
	}
	if rep.Provisions > 0 {
		rep.Blocking = float64(rep.Blocked) / float64(rep.Provisions)
	}
	if rep.Elapsed > 0 {
		rep.Throughput = float64(cfg.Requests) / rep.Elapsed
	}
	st := e.Status()
	rep.Epochs, rep.Conflicts, rep.Retries = st.Epoch, st.Conflicts, st.Retries

	if cfg.Drain {
		for _, id := range e.LiveIDs() {
			if resp := e.Teardown(id); !resp.Accepted {
				return rep, fmt.Errorf("drain: teardown of %d failed: %s", id, resp.Reason)
			}
		}
		if err := e.Audit(); err != nil {
			return rep, fmt.Errorf("post-drain audit: %w", err)
		}
		rep.Drained = true
	}
	return rep, nil
}
