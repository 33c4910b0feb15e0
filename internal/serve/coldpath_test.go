package serve

import (
	"testing"

	"repro/internal/auxgraph"
	"repro/internal/metrics"
)

// TestSkeletonBuildsBoundedByShards backs the cold-path claim on the shard
// routers' skeleton cache with the counter that would show it breaking:
// every epoch publishes a new snapshot network, yet on an unchanged topology
// each shard builds its auxiliary-graph skeleton at most once, so
// auxgraph_builds_total grows by at most the shard count over a whole soak.
func TestSkeletonBuildsBoundedByShards(t *testing.T) {
	reg := metrics.NewRegistry()
	auxgraph.EnableMetrics(reg)
	t.Cleanup(func() { auxgraph.EnableMetrics(nil) })
	builds := reg.Counter("auxgraph_builds_total", "")

	const shards = 4
	e := startEngine(t, nsf(8), Config{Shards: shards, Algorithm: AlgoMinLoadCost})
	before := builds.Value()
	rep, err := RunSoak(e, SoakConfig{
		Requests:     20000,
		Clients:      8,
		Seed:         5,
		RerouteEvery: 25,
		Drain:        true,
	})
	if err != nil {
		t.Fatalf("soak: %v\n%s", err, rep)
	}
	if rep.Epochs < 1000 || rep.Accepted == 0 {
		t.Fatalf("soak too small to exercise snapshot turnover: %s", rep)
	}
	if n := builds.Value() - before; n > shards {
		t.Fatalf("%d skeleton builds over %d epochs with %d shards on one topology, want ≤ %d",
			n, rep.Epochs, shards, shards)
	}
}
