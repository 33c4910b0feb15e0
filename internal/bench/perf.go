package bench

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// PerfMeasure is one side of a before/after performance comparison, taken
// with testing.Benchmark.
type PerfMeasure struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Ops         int     `json:"ops"`
}

// PerfComparison pits the one-shot path (a fresh auxiliary graph and search
// state per call) against the reusable-Router hot path on the same workload.
type PerfComparison struct {
	Name           string      `json:"name"`
	Desc           string      `json:"desc"`
	Before         PerfMeasure `json:"before"`
	After          PerfMeasure `json:"after"`
	Speedup        float64     `json:"speedup"`         // Before.NsPerOp / After.NsPerOp
	AllocReduction float64     `json:"alloc_reduction"` // Before.AllocsPerOp / After.AllocsPerOp
}

func measure(f func(b *testing.B)) PerfMeasure {
	r := testing.Benchmark(f)
	return PerfMeasure{
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Ops:         r.N,
	}
}

func compare(name, desc string, before, after PerfMeasure) PerfComparison {
	c := PerfComparison{Name: name, Desc: desc, Before: before, After: after}
	if after.NsPerOp > 0 {
		c.Speedup = before.NsPerOp / after.NsPerOp
	}
	if after.AllocsPerOp > 0 {
		c.AllocReduction = float64(before.AllocsPerOp) / float64(after.AllocsPerOp)
	}
	return c
}

// preloadedNSFNET returns NSFNET with a deterministic fraction of wavelengths
// reserved, so the MinCog threshold search has real load structure to search
// over (several distinct per-link ratios → multiple rounds).
func preloadedNSFNET(w int, p float64, seed int64) *wdm.Network {
	net := topo.NSFNET(topo.Config{W: w})
	rng := rand.New(rand.NewSource(seed))
	for id := 0; id < net.Links(); id++ {
		for lam := 0; lam < w; lam++ {
			if rng.Float64() < p {
				net.Use(id, wdm.Wavelength(lam))
			}
		}
	}
	return net
}

// PerfSuite runs the before/after benchmark arms:
//
//   - route: a single ApproxMinCost request on NSFNET (W=8) — fresh
//     construction per call vs a warm Router reweighting its cached skeleton.
//   - mincog: a MinLoad request on a 40%-preloaded NSFNET, where the
//     threshold search historically rebuilt the auxiliary graph every round.
//   - candidate: the same warm request through the exact pipeline vs the
//     precomputed candidate-path fast tier (bitset admission + fixed-route
//     assignment DP, exact fallback).
//   - sim: a full dynamic-traffic simulation (200 Poisson arrivals, active
//     restoration) — the before arm forces per-arrival one-shot routing via
//     Config.RouteFunc, the after arm is the production configuration:
//     shared warm router, incremental reweight, pooled sim loop, candidate
//     tier with a precomputed table.
//
// The route/mincog/sim arm definitions match the earlier BENCH_PR*.json
// files, so after-vs-after across files measures this PR's work. The exact
// and candidate arms route the same requests; the harness's candidate arm
// asserts feasibility equality and the cost gate differentially.
func PerfSuite() []PerfComparison {
	var out []PerfComparison

	{
		net := topo.NSFNET(topo.Config{W: 8})
		before := measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.NewRouter(nil).ApproxMinCost(net, 0, 9)
			}
		})
		r := core.NewRouter(nil)
		r.ApproxMinCost(net, 0, 9) // warm up skeleton + workspaces
		after := measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.ApproxMinCost(net, 0, 9)
			}
		})
		out = append(out, compare("route_approx_min_cost",
			"single ApproxMinCost request, NSFNET W=8, pair 0->9", before, after))
	}

	{
		before := measure(func(b *testing.B) {
			b.ReportAllocs()
			net := preloadedNSFNET(8, 0.4, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.NewRouter(nil).MinLoad(net, 2, 11)
			}
		})
		after := measure(func(b *testing.B) {
			b.ReportAllocs()
			net := preloadedNSFNET(8, 0.4, 5)
			r := core.NewRouter(nil)
			r.MinLoad(net, 2, 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.MinLoad(net, 2, 11)
			}
		})
		out = append(out, compare("mincog_min_load",
			"MinLoad threshold search, 40%-preloaded NSFNET W=8, pair 2->11", before, after))
	}

	{
		// Candidate fast tier vs the exact pipeline, both warm, on a
		// preloaded network (so admission does real feasibility work).
		net := preloadedNSFNET(8, 0.4, 5)
		exactR := core.NewRouter(nil)
		exactR.ApproxMinCost(net, 0, 9)
		before := measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exactR.ApproxMinCost(net, 0, 9)
			}
		})
		tab := core.NewCandidateTable(net, 4)
		candR := core.NewRouter(&core.Options{CandidateTable: tab, ReuseResult: true})
		candR.ApproxMinCost(net, 0, 9)
		after := measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				candR.ApproxMinCost(net, 0, 9)
			}
		})
		out = append(out, compare("route_candidate_tier",
			"single ApproxMinCost request, 40%-preloaded NSFNET W=8, pair 0->9: exact pipeline vs candidate fast tier", before, after))
	}

	{
		reqs := workload.Poisson(workload.PoissonConfig{
			Nodes: 14, ArrivalRate: 10, MeanHolding: 2, Count: 200, Seed: 7,
		})
		net := topo.NSFNET(topo.Config{W: 8})
		before := measure(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim := netsim.New(net, netsim.Config{
					Algorithm: netsim.MinCost,
					// Force the pre-Router behaviour: a fresh one-shot
					// routing call (new aux graph + workspaces) per arrival.
					RouteFunc: func(n *wdm.Network, s, t int) (*core.Result, bool) {
						return core.NewRouter(nil).ApproxMinCost(n, s, t)
					},
				})
				sim.Run(reqs)
			}
		})
		tab := core.NewCandidateTable(net, 4)
		after := measure(func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim := netsim.New(net, netsim.Config{
					Algorithm: netsim.MinCost,
					Opts:      &core.Options{CandidateTable: tab},
				})
				sim.Run(reqs)
			}
		})
		out = append(out, compare("sim_nsfnet_dynamic",
			"full event-driven sim, NSFNET W=8, 200 Poisson arrivals, active restoration; after = candidate tier + incremental reweight + pooled sim loop", before, after))
	}

	return out
}

// WritePerfJSON runs PerfSuite and writes the comparisons as indented JSON.
func WritePerfJSON(path string) error {
	data, err := json.MarshalIndent(PerfSuite(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
