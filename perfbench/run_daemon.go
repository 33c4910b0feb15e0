package main

import (
	"fmt"
	"runtime"
	"time"
)

// The http-nsfnet rates, fixed once here. The latency rate is about a
// quarter of the provision rate at which the parent commit's daemon would
// keep every core busy (capacity_rps): the busier the cores, the more a stall
// from another tenant of the host is amplified, and the less steady the
// latency between runs.
//
// A run has two phases of equal length. The latency phase offers
// latencyRate; the CPU phase offers cpuRate, about half of capacity, and
// gives capacity_rps. At low load the Go scheduler's spinning between
// wake-ups is a large and variable share of the process CPU, so CPU per
// provision is steadier when the cores are busier.
const (
	latencyRate = 1000 // offered provisions per second
	cpuRate     = 2000
	// The set-up timing (setup.go) takes daemonSetupBlocks blocks of
	// daemonSetupReps set-ups before, between and after the two phases.
	daemonSetupReps   = 20
	daemonSetupBlocks = 14
	warmup            = 500 * time.Millisecond
	// windowProvisions is how many provisions a tail-quantile window holds
	// on average: 20 lie beyond its p99.
	windowProvisions = 2000
	// genBehindUs marks a run whose generator fell behind its schedule: its
	// median dispatch came this late. The pacer's own floor is ~10 µs; the
	// p99 lag is set by how busy the process is, not by the generator.
	genBehindUs = 50
)

// daemonSetup times daemon set-ups: topology, engine New + Start and
// listener.
func daemonSetup() *setupTimer {
	return &setupTimer{reps: daemonSetupReps, once: func() (time.Duration, error) {
		t0 := time.Now()
		d, err := startDaemon(0)
		if err != nil {
			return 0, err
		}
		dt := time.Since(t0)
		return dt, d.stop()
	}}
}

// fixedPhase runs the open loop at rate for window, checks the daemon
// drained, and returns what the process spent meanwhile.
func fixedPhase(d *daemon, rate float64, seed int64, tag uint64, window time.Duration, acc *totals) (*phaseResult, procDelta, error) {
	tr := daemonTrace(seed, tag, rate, window)
	p0 := readProc()
	r, err := runPhase(d.tg, tr, phaseConfig{
		idBase: int64(tag) << 32, warmup: warmup, window: window,
		inflightCap: int64(rate), // a second of backlog: the rate is past capacity
		qwindow:     time.Duration(windowProvisions / rate * 1e9),
	})
	if err != nil {
		return nil, procDelta{}, err
	}
	pd := diffProc(p0, readProc(), r.attempted)
	acc.add(r)
	if r.aborted {
		return nil, pd, fmt.Errorf("rate %.0f/s is past the daemon's capacity (backlog over %d ops)", rate, r.inflightMax)
	}
	return r, pd, d.drain()
}

func phaseDetail(rate float64, window time.Duration, r *phaseResult) map[string]any {
	p50, _ := r.lag.quantileUs(0.5)
	p99, _ := r.lag.quantileUs(0.99)
	return map[string]any{
		"rate": rate, "window_s": window.Seconds(), "warmup_s": warmup.Seconds(),
		"provisions": len(r.lat[opProvision]), "teardowns": len(r.lat[opTeardown]), "reroutes": len(r.lat[opReroute]),
		"gen_lag_p50_us": p50, "gen_lag_p99_us": p99, "gen_behind": p50 > genBehindUs,
		"inflight_max": r.inflightMax,
	}
}

// runDaemonWorkload is one untraced run: set-up, the latency phase and the
// CPU phase on one engine, then the end-of-run gate.
func runDaemonWorkload(seed int64, seconds float64, rep *report) error {
	st := daemonSetup()
	if err := st.blocks(daemonSetupBlocks); err != nil {
		return err
	}
	d, err := startDaemon(0)
	if err != nil {
		return err
	}
	var acc totals
	window := time.Duration(seconds / 2 * 1e9)
	r, _, err := fixedPhase(d, latencyRate, seed, 1, window, &acc)
	if err != nil {
		return err
	}
	if err := st.blocks(daemonSetupBlocks); err != nil {
		return err
	}
	c, pd, err := fixedPhase(d, cpuRate, seed, 2, window, &acc)
	if err != nil {
		return err
	}
	if err := d.audit(acc.provisions, acc.accepted); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	if err := st.blocks(daemonSetupBlocks); err != nil {
		return err
	}
	st.set(rep)
	rep.set("peak_heap_mb", max(r.heapMB, c.heapMB))
	rep.detail["phase"] = phaseDetail(latencyRate, window, r)
	rep.detail["cpu_phase"] = phaseDetail(cpuRate, window, c)

	if err := setLatency(rep, r); err != nil {
		return err
	}
	// In an open loop this is the offered rate for as long as the daemon
	// keeps up: an input check, which moves only if replies fall behind the
	// arrivals. It measures the program only on sim-nsfnet.
	rep.setN("arrivals_per_s", float64(r.provisions)/(r.provEnd-warmup).Seconds(), r.provisions)
	// Both phases offer 30 Erlang, so both count towards blocking and cost.
	provisions, accepted := r.provisions+c.provisions, r.accepted+c.accepted
	rep.setN("blocking", ratio(float64(r.blocked+c.blocked), float64(provisions)), provisions)
	rep.setN("mean_cost", ratio(r.costSum+c.costSum, float64(accepted)), accepted)
	// Every op the phase sent is paid for by its provisions.
	cpuPerProv := pd.cpuUsPerOp * float64(c.attempted) / float64(c.sentProvisions)
	rep.setN("capacity_rps", float64(runtime.GOMAXPROCS(0))*1e6/cpuPerProv, c.sentProvisions)
	rep.detail["cpu_us_per_provision"] = cpuPerProv
	rep.attempted, rep.failed = acc.attempted, acc.failed
	rep.set("success_rate", 1-ratio(float64(acc.failed), float64(acc.attempted)))
	return nil
}

// setLatency sets the provision median and, where enough windows hold a
// reportable p99, the provision and teardown p99s. The p99s are per-layer
// metrics, printed by the traced run; the untraced run records them in its
// detail.
func setLatency(rep *report, r *phaseResult) error {
	prov, tear := r.lat[opProvision], r.lat[opTeardown]
	p50, ok := prov.quantileUs(0.5)
	if !ok {
		return fmt.Errorf("too few provisions for a median (%d)", len(prov))
	}
	rep.setN("provision_p50_us", p50, int64(len(prov)))
	tails := map[string]any{}
	if p99, n, ok := windowedQuantileUs(r.win[opProvision], 0.99); ok {
		rep.setN("provision_p99_us", p99, int64(len(prov)))
		tails["provision_p99"], tails["provision_windows"] = p99, n
	}
	if t99, n, ok := windowedQuantileUs(r.win[opTeardown], 0.99); ok {
		rep.setN("teardown_p99_us", t99, int64(len(tear)))
		tails["teardown_p99"], tails["teardown_windows"] = t99, n
	}
	rep.detail["tails_us"] = tails
	return nil
}

// runDaemonTraced runs the open loop twice on one trace: untraced (process
// counters, generator validity) and then with every program registry and
// the journal on (layer metrics). The difference is the tracing overhead.
func runDaemonTraced(seed int64, seconds float64, rep *report) error {
	d, err := startDaemon(0)
	if err != nil {
		return err
	}
	window := time.Duration(0.45 * seconds * 1e9)
	var accA, accB totals
	a, pd, err := fixedPhase(d, latencyRate, seed, 1, window, &accA)
	if err != nil {
		return err
	}
	if err := d.audit(accA.provisions, accA.accepted); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}

	reg := enableRegistries()
	if d, err = startDaemon(1 << 22); err != nil {
		return err
	}
	b, _, err := fixedPhase(d, latencyRate, seed, 1, window, &accB) // the same trace again
	if err != nil {
		return err
	}
	v := viewOf(reg)
	st := d.e.Status()
	if err := d.audit(accB.provisions, accB.accepted); err != nil {
		return err
	}
	if err := d.checkReplay(); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	rep.attempted, rep.failed = accA.attempted+accB.attempted, accA.failed+accB.failed
	rep.detail["untraced"] = phaseDetail(latencyRate, window, a)
	rep.detail["traced"] = phaseDetail(latencyRate, window, b)

	if err := setLatency(rep, a); err != nil {
		return err
	}
	lag99, _ := a.lag.quantileUs(0.99)
	rep.setN("driver.gen_lag_p99_us", lag99, int64(len(a.lag)))
	rep.set("driver.inflight_max", float64(a.inflightMax))
	setProc(rep, pd, a.attempted)

	ops := float64(b.attempted)
	provisions := float64(st.Provisions)
	stage := func(metric, timer string) float64 {
		m, n := v.meanUs(timer)
		rep.setN(metric, m, n)
		sum, _ := v.hist(timer)
		return sum
	}
	stageSum := stage("serve.queue_us", "wdmd_stage_queue_seconds") +
		stage("serve.snapshot_us", "wdmd_stage_snapshot_seconds") +
		stage("serve.route_us", "wdmd_stage_route_seconds") +
		stage("serve.commit_us", "wdmd_stage_commit_seconds") +
		stage("serve.reroute_us", "wdmd_stage_reroute_seconds")
	reqSum, reqN := v.hist("wdmd_request_seconds")
	request := ratio(reqSum*1e6, float64(reqN))
	rep.setN("serve.request_us", request, reqN)
	rep.set("serve.epochs_per_op", ratio(float64(st.Epoch), ops))
	rep.set("serve.conflicts_per_provision", ratio(float64(st.Conflicts), provisions))
	rep.set("serve.retries_per_provision", ratio(float64(st.Retries), provisions))

	client := b.all.meanUs()
	rep.setN("closure.client_us", client, int64(len(b.all)))
	rep.setN("closure.stage_sum_us", ratio(stageSum*1e6, float64(reqN)), reqN)
	rep.set("closure.unattributed_us", request-ratio(stageSum*1e6, float64(reqN)))
	rep.set("closure.remainder_us", client-request)
	if reqN != b.attempted {
		return violationf("engine timed %d requests, driver sent %d", reqN, b.attempted)
	}
	decode, decodeN := v.meanUs("wdmd_stage_decode_seconds")
	rep.setN("http.decode_us", decode, decodeN)
	rep.set("http.overhead_us", client-request)
	setRouting(rep, v, provisions)
	rep.setN("netsim.route_us", 0, 0)
	rep.setN("netsim.restore_us", 0, 0)
	rep.set("trace.overhead_frac", b.all.meanUs()/a.all.meanUs()-1)
	return nil
}

func setProc(rep *report, pd procDelta, ops int64) {
	rep.setN("proc.cpu_us_per_op", pd.cpuUsPerOp, ops)
	rep.setN("proc.allocs_per_op", pd.allocsPerOp, ops)
	rep.setN("proc.bytes_per_op", pd.bytesPerOp, ops)
	rep.set("proc.gc_cpu_frac", pd.gcCPUFrac)
	rep.setN("proc.sched_wait_p99_us", pd.schedP99Us, pd.schedN)
}

// setRouting sets the core, auxgraph and disjoint layer metrics from the
// registries; provisions is the workload's count of routed requests.
func setRouting(rep *report, v registryView, provisions float64) {
	calls := v.counter("core_route_calls_total")
	rep.setN("core.route_calls_per_provision", ratio(calls, provisions), int64(provisions))
	for _, t := range []struct{ metric, timer string }{
		{"core.mincog_us", "core_phase_mincog_seconds"},
		{"core.disjoint_us", "core_phase_disjoint_seconds"},
		{"core.refine_us", "core_phase_refine_seconds"},
		{"auxgraph.build_us", "auxgraph_build_seconds"},
		{"auxgraph.reweight_us", "auxgraph_reweight_seconds"},
		{"disjoint.suurballe_us", "disjoint_suurballe_seconds"},
	} {
		m, n := v.meanUs(t.timer)
		rep.setN(t.metric, m, n)
	}
	itSum, itN := v.hist("core_mincog_iterations")
	rep.setN("core.mincog_iters", ratio(itSum, float64(itN)), itN)
	rep.setN("core.candidate_hit_frac", ratio(v.counter("core_candidate_hits_total"), calls), int64(calls))
	rep.setN("auxgraph.builds_per_route", ratio(v.counter("auxgraph_builds_total"), calls), int64(calls))
	rep.setN("auxgraph.reweights_per_route", ratio(v.counter("auxgraph_reweights_total"), calls), int64(calls))
	sc := v.counter("disjoint_suurballe_calls_total")
	rep.setN("disjoint.relaxations_per_call", ratio(v.counter("disjoint_dijkstra_relaxations_total"), sc), int64(sc))
	rep.setN("disjoint.heap_ops_per_call", ratio(v.counter("disjoint_heap_ops_total"), sc), int64(sc))
	rep.setN("disjoint.found_frac", ratio(v.counter("disjoint_suurballe_found_total"), sc), int64(sc))
}
