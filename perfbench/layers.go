package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// enableRegistries turns on every counter and timer the program registers.
// They stay on for the rest of the process, so a traced run measures its
// untraced phase first.
func enableRegistries() *metrics.Registry {
	reg := cli.EnableAllMetrics()
	serve.EnableMetrics(reg)
	return reg
}

// registryView reads counters and timers by name from one snapshot. Means
// come from each timer's exact Sum/Count, never from its bucket quantiles.
type registryView map[string]metrics.MetricSnapshot

func viewOf(reg *metrics.Registry) registryView {
	v := registryView{}
	for _, m := range reg.Snapshot() {
		v[m.Name] = m
	}
	return v
}

func (v registryView) counter(name string) float64 {
	if m, ok := v[name]; ok && m.Value != nil {
		return *m.Value
	}
	return 0
}

// sum and count of a histogram or timer (timers in seconds).
func (v registryView) hist(name string) (float64, int64) {
	m, ok := v[name]
	if !ok || m.Count == nil || m.Sum == nil {
		return 0, 0
	}
	return *m.Sum, *m.Count
}

// meanUs is a timer's mean in microseconds with its sample count (0 when it
// has no samples: the layer is not on this workload's path).
func (v registryView) meanUs(name string) (float64, int64) {
	sum, n := v.hist(name)
	return ratio(sum*1e6, float64(n)), n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is a point reading of the process counters.
type procSample struct {
	cpu     time.Duration // user + system, getrusage
	samples []rtmetrics.Sample
}

var procNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

// procCPU is the process's user + system time so far (getrusage).
func procCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProc() procSample {
	s := procSample{
		cpu:     procCPU(),
		samples: make([]rtmetrics.Sample, len(procNames)),
	}
	for i, n := range procNames {
		s.samples[i].Name = n
	}
	rtmetrics.Read(s.samples)
	return s
}

// procDelta is what the process spent between two readings, per op.
type procDelta struct {
	cpuUsPerOp, allocsPerOp, bytesPerOp, gcCPUFrac float64
	schedP99Us                                     float64
	schedN                                         int64
}

func diffProc(a, b procSample, ops int64) procDelta {
	u64 := func(i int) float64 { return float64(b.samples[i].Value.Uint64() - a.samples[i].Value.Uint64()) }
	f64 := func(i int) float64 { return b.samples[i].Value.Float64() - a.samples[i].Value.Float64() }
	d := procDelta{
		cpuUsPerOp:  ratio(float64((b.cpu - a.cpu).Microseconds()), float64(ops)),
		allocsPerOp: ratio(u64(0), float64(ops)),
		bytesPerOp:  ratio(u64(1), float64(ops)),
		gcCPUFrac:   ratio(f64(2), f64(3)),
	}
	d.schedP99Us, d.schedN = histDeltaP99(a.samples[4].Value.Float64Histogram(), b.samples[4].Value.Float64Histogram())
	return d
}

// histDeltaP99 is the p99 of the runtime histogram's growth between two
// readings: the upper edge of the bucket holding the nearest-rank sample.
// The runtime's time buckets are a few percent wide, far finer than the
// program's own 3-per-decade timers. Zero when fewer than 1000 samples.
func histDeltaP99(a, b *rtmetrics.Float64Histogram) (float64, int64) {
	counts := make([]uint64, len(b.Counts))
	var n uint64
	for i := range b.Counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		n += counts[i]
	}
	if n < 100*minTail {
		return 0, int64(n)
	}
	rank := uint64(math.Ceil(0.99 * float64(n)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			edge := b.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[i]
			}
			return edge * 1e6, int64(n)
		}
	}
	return 0, int64(n)
}

// heapPeak samples the live heap until stopped and keeps the maximum. The
// live heap is what the last GC marked reachable: the process's working set,
// without the garbage whose amount depends on when collection ran.
type heapPeak struct {
	stop chan struct{}
	done chan float64
}

// watchHeap collects first: the live heap reads what the last collection
// marked, and one that ran while the inputs were being generated would
// count the generator's buffers.
func watchHeap() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan float64)}
	go func() {
		s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		peak := uint64(0)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// mb stops the sampler and returns the peak in MiB.
func (h *heapPeak) mb() float64 {
	close(h.stop)
	return <-h.done
}
