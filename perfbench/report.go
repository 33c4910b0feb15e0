package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of the daemon or the simulator sees. Every
// workload prints all of them; README.md says what each one is on each
// workload.
var endToEnd = []metricDef{
	{"provision_p50_us", "us"},
	{"capacity_rps", "1/s"},
	{"arrivals_per_s", "1/s"},
	{"blocking", "ratio"},
	{"mean_cost", "cost"},
	{"success_rate", "ratio"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
}

// perLayer is printed by the traced run. A layer a workload does not cross
// reads 0 with a sample count of 0. The first two are end-to-end tails,
// taken from the traced run's untraced half: they are printed here, with no
// bound, because their spread between runs on a shared 2-vCPU host is wider
// than any bound a metric may have (README.md).
var perLayer = []metricDef{
	{"provision_p99_us", "us"},
	{"teardown_p99_us", "us"},
	{"driver.gen_lag_p99_us", "us"},
	{"driver.inflight_max", "count"},
	{"serve.queue_us", "us"},
	{"serve.snapshot_us", "us"},
	{"serve.route_us", "us"},
	{"serve.commit_us", "us"},
	{"serve.reroute_us", "us"},
	{"serve.request_us", "us"},
	{"serve.epochs_per_op", "ratio"},
	{"serve.conflicts_per_provision", "ratio"},
	{"serve.retries_per_provision", "ratio"},
	{"http.decode_us", "us"},
	{"http.overhead_us", "us"},
	{"core.route_calls_per_provision", "ratio"},
	{"core.mincog_us", "us"},
	{"core.mincog_iters", "count"},
	{"core.disjoint_us", "us"},
	{"core.refine_us", "us"},
	{"core.candidate_hit_frac", "ratio"},
	{"auxgraph.builds_per_route", "ratio"},
	{"auxgraph.build_us", "us"},
	{"auxgraph.reweights_per_route", "ratio"},
	{"auxgraph.reweight_us", "us"},
	{"disjoint.suurballe_us", "us"},
	{"disjoint.relaxations_per_call", "count"},
	{"disjoint.heap_ops_per_call", "count"},
	{"disjoint.found_frac", "ratio"},
	{"netsim.route_us", "us"},
	{"netsim.restore_us", "us"},
	{"proc.cpu_us_per_op", "us"},
	{"proc.allocs_per_op", "count"},
	{"proc.bytes_per_op", "B"},
	{"proc.gc_cpu_frac", "ratio"},
	{"proc.sched_wait_p99_us", "us"},
	{"closure.client_us", "us"},
	{"closure.stage_sum_us", "us"},
	{"closure.unattributed_us", "us"},
	{"closure.remainder_us", "us"},
	{"trace.overhead_frac", "ratio"},
}

// report collects one run's numbers. Timings carry the number of samples
// behind them; detail carries provenance and diagnostics that are printed
// but are not metrics.
type report struct {
	attempted, failed int64
	values            map[string]float64
	counts            map[string]int64
	detail            map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, counts: map[string]int64{}, detail: map[string]any{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setN records a value with the sample count behind it.
func (r *report) setN(name string, v float64, n int64) {
	r.values[name] = v
	r.counts[name] = n
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints a human table (each timing beside its sample count), the
// detail object, and last the result line. It fails if a metric of the
// chosen set is missing or not finite.
func (r *report) write(w io.Writer, defs []metricDef) error {
	res := jsonResult{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		if n, ok := r.counts[d.name]; ok {
			fmt.Fprintf(w, "  %-32s %16.6g %-6s n=%d\n", d.name, v, d.unit, n)
		} else {
			fmt.Fprintf(w, "  %-32s %16.6g %s\n", d.name, v, d.unit)
		}
	}
	r.detail["sample_counts"] = r.counts
	detail, err := json.Marshal(r.detail)
	if err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "detail %s\n%s\n", detail, last)
	return err
}
