package main

import (
	"runtime"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wdm"
	"repro/internal/workload"
)

// The sim-nsfnet batch: one seeded Poisson trace, simulated again and again
// for the run's seconds.
const (
	simArrivals    = 100000 // mean arrivals per trace (Poisson)
	simErlang      = 30
	simFailureRate = 0.002 // link failures per simulated time unit, ~200 per trace
	simCandidates  = 4
	// simSetupReps is the block size of the set-up timing (setup.go); one
	// block is timed after each pass.
	simSetupReps = 5
)

// simSig is what must repeat exactly on every pass over one trace.
type simSig struct {
	Offered, Accepted, Blocked, CostN int
	CostMean                          float64
	Failures, Recovered, Dropped      int
}

type simBench struct {
	net  *wdm.Network
	tab  *core.CandidateTable
	reqs []workload.Request
	seed int64
}

// buildSim is the simulator's set-up: the topology and its candidate table.
func buildSim() (*wdm.Network, *core.CandidateTable, error) {
	network, err := cli.BuildTopology("nsfnet", 0, 8, 0)
	if err != nil {
		return nil, nil, err
	}
	return network, core.NewCandidateTable(network, simCandidates), nil
}

// simPass is one Sim.Run over the trace. Arrivals take the simulator's own
// min-cost routing path, with the candidate table in its options.
type simPass struct {
	sig     simSig
	elapsed time.Duration
	cpu     time.Duration // process CPU during the pass
}

func (b *simBench) pass() (*simPass, error) {
	sim := netsim.New(b.net, netsim.Config{
		Algorithm:   netsim.MinCost,
		Restoration: netsim.Active,
		Opts:        &core.Options{CandidateTable: b.tab},
		FailureRate: simFailureRate,
		Seed:        b.seed,
	})
	t0, c0 := time.Now(), procCPU()
	m := sim.Run(b.reqs)
	p := &simPass{elapsed: time.Since(t0), cpu: procCPU() - c0}
	p.sig = simSig{
		Offered: m.Offered, Accepted: m.Accepted, Blocked: m.Blocked,
		CostN: m.Cost.N(), CostMean: m.Cost.Mean(),
		Failures: m.FailureEvents, Recovered: m.Recovered, Dropped: m.RecoveryFailed,
	}
	if m.Offered != len(b.reqs) || m.Accepted+m.Blocked != m.Offered || m.Accepted == 0 {
		return nil, violationf("sim counted %d offered / %d accepted / %d blocked for %d arrivals",
			m.Offered, m.Accepted, m.Blocked, len(b.reqs))
	}
	if n := sim.LiveConnections(); n != 0 {
		return nil, violationf("sim ended with %d live connections", n)
	}
	return p, nil
}

// passes repeats the simulation for d (at least three passes), checking
// every pass against want (set from the first pass when nil). A non-nil st
// times one block of set-ups after each pass.
func (b *simBench) passes(d time.Duration, want *simSig, st *setupTimer) ([]*simPass, error) {
	var out []*simPass
	t0 := time.Now()
	for len(out) < 3 || time.Since(t0) < d {
		p, err := b.pass()
		if err != nil {
			return nil, err
		}
		if want == nil {
			want = &p.sig
		}
		if p.sig != *want {
			return nil, violationf("pass %d of one seed gave %+v, pass 1 gave %+v", len(out)+1, p.sig, *want)
		}
		out = append(out, p)
		if st != nil {
			if err := st.blocks(1); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func newSimBench(seed int64) (*simBench, error) {
	network, tab, err := buildSim()
	if err != nil {
		return nil, err
	}
	tr := genTrace(traceConfig{nodes: network.Nodes(), rate: 1, erlang: simErlang, window: simArrivals, seed: subSeed(seed, 1)})
	return &simBench{net: network, tab: tab, reqs: tr.requests(), seed: subSeed(seed, 2)}, nil
}

func rates(ps []*simPass, arrivals int) (perPass []float64, total float64) {
	var el time.Duration
	for _, p := range ps {
		perPass = append(perPass, float64(arrivals)/p.elapsed.Seconds())
		el += p.elapsed
	}
	return perPass, float64(arrivals*len(ps)) / el.Seconds()
}

func runSimWorkload(seed int64, seconds float64, rep *report) error {
	b, err := newSimBench(seed)
	if err != nil {
		return err
	}
	st := &setupTimer{reps: simSetupReps, once: func() (time.Duration, error) {
		t0 := time.Now()
		_, _, err := buildSim()
		return time.Since(t0), err
	}}
	heap := watchHeap()
	ps, err := b.passes(time.Duration(seconds*1e9), nil, st)
	peak := heap.mb()
	if err != nil {
		return err
	}
	st.set(rep)
	arrivals := int64(len(b.reqs) * len(ps))
	var cpu time.Duration
	for _, p := range ps {
		cpu += p.cpu
	}
	cpuUsPerArrival := float64(cpu.Microseconds()) / float64(arrivals)
	rep.set("peak_heap_mb", peak)
	perPass, _ := rates(ps, len(b.reqs))
	// Per-call routing time is netsim.route_us in the traced run; timing
	// each call from outside would replace the simulator's own router.
	rep.setN("provision_p50_us", 1e6/median(perPass), int64(len(ps)))
	rep.setN("arrivals_per_s", median(perPass), int64(len(ps)))
	rep.setN("capacity_rps", float64(runtime.GOMAXPROCS(0))*1e6/cpuUsPerArrival, arrivals)
	sig := ps[0].sig
	rep.setN("blocking", ratio(float64(sig.Blocked), float64(sig.Offered)), int64(sig.Offered))
	rep.setN("mean_cost", sig.CostMean, int64(sig.CostN))
	rep.set("success_rate", 1)
	rep.attempted = arrivals
	rep.detail["sim"] = map[string]any{"arrivals": len(b.reqs), "passes": len(ps), "signature": sig, "pass_rates": perPass}
	return nil
}

// runSimTraced runs half its time untraced, half with every registry on;
// both halves must give the same signature.
func runSimTraced(seed int64, seconds float64, rep *report) error {
	b, err := newSimBench(seed)
	if err != nil {
		return err
	}
	half := time.Duration(0.45 * seconds * 1e9)
	p0 := readProc()
	a, err := b.passes(half, nil, nil)
	if err != nil {
		return err
	}
	arrivalsA := int64(len(b.reqs) * len(a))
	setProc(rep, diffProc(p0, readProc(), arrivalsA), arrivalsA)

	reg := enableRegistries()
	bs, err := b.passes(half, &a[0].sig, nil)
	if err != nil {
		return err
	}
	v := viewOf(reg)
	arrivals := float64(len(b.reqs) * len(bs))
	rep.attempted = arrivalsA + int64(arrivals)

	for _, name := range []string{"provision_p99_us", "teardown_p99_us", "driver.gen_lag_p99_us", "driver.inflight_max",
		"serve.queue_us", "serve.snapshot_us", "serve.route_us", "serve.commit_us", "serve.reroute_us",
		"serve.request_us", "serve.epochs_per_op", "serve.conflicts_per_provision", "serve.retries_per_provision",
		"http.decode_us", "http.overhead_us", "closure.unattributed_us"} {
		rep.setN(name, 0, 0) // no per-request timing, generator, daemon or HTTP on this path
	}
	setRouting(rep, v, arrivals)
	routeUs, routeN := v.meanUs("netsim_route_seconds")
	rep.setN("netsim.route_us", routeUs, routeN)
	restoreUs, restoreN := v.meanUs("netsim_restore_seconds")
	rep.setN("netsim.restore_us", restoreUs, restoreN)

	perA, _ := rates(a, len(b.reqs))
	perB, totalB := rates(bs, len(b.reqs))
	client := 1e6 / totalB
	routeSum, _ := v.hist("netsim_route_seconds")
	restoreSum, _ := v.hist("netsim_restore_seconds")
	stages := (routeSum + restoreSum) * 1e6 / arrivals
	rep.setN("closure.client_us", client, int64(arrivals))
	rep.setN("closure.stage_sum_us", stages, routeN)
	rep.set("closure.remainder_us", client-stages)
	rep.set("trace.overhead_frac", median(perA)/median(perB)-1)
	rep.detail["sim"] = map[string]any{"arrivals": len(b.reqs), "passes_untraced": len(a), "passes_traced": len(bs), "signature": a[0].sig}
	return nil
}
