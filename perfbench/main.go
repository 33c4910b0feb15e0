// Command perfbench is the repository benchmark: it runs one named workload
// against the wdmd engine over loopback HTTP or the batch simulator, checks
// the outputs, and prints every metric by name with its unit. The last line of standard output is the JSON result. See README.md.
//
//	perfbench --workload http-nsfnet --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// workloadNames are the workloads the program runs.
var workloadNames = []string{"http-nsfnet", "sim-nsfnet"}

func main() {
	name := flag.String("workload", "", "workload: http-nsfnet or sim-nsfnet")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if v := (violation{}); errors.As(err, &v) {
			fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed; no result recorded")
		}
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int) error {
	if seconds < 1 || (traced != 0 && traced != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	rep := newReport()
	rep.detail["workload"] = name
	rep.detail["seed"] = seed
	rep.detail["seconds"] = seconds
	rep.detail["trace"] = traced
	rep.detail["host"] = fingerprint()
	rep.detail["pacer"] = "timerfd"
	steal0, total0 := cpuTicks()
	var err error
	switch {
	case name == "http-nsfnet" && traced == 0:
		err = runDaemonWorkload(seed, seconds, rep)
	case name == "http-nsfnet":
		err = runDaemonTraced(seed, seconds, rep)
	case name == "sim-nsfnet" && traced == 0:
		err = runSimWorkload(seed, seconds, rep)
	case name == "sim-nsfnet":
		err = runSimTraced(seed, seconds, rep)
	default:
		return fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	steal1, total1 := cpuTicks()
	// The share of the machine's CPU time its hypervisor gave to other
	// guests during the run: timings from runs with much steal are slower.
	rep.detail["host_steal_frac"] = ratio(float64(steal1-steal0), float64(total1-total0))
	if err != nil {
		if d, jerr := json.Marshal(rep.detail); jerr == nil {
			fmt.Fprintf(os.Stderr, "detail %s\n", d)
		}
		return err
	}
	defs := endToEnd
	if traced == 1 {
		defs = perLayer
	}
	return rep.write(os.Stdout, defs)
}
