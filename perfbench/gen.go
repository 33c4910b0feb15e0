package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/workload"
)

type opKind uint8

const (
	opProvision opKind = iota
	opTeardown
	opReroute
)

var opNames = [...]string{"provision", "teardown", "reroute"}

func (k opKind) String() string { return opNames[k] }

// connReq is one generated connection request: endpoints, arrival time and
// holding time, in seconds of wall clock (daemon workloads) or simulated
// time units (sim-nsfnet).
type connReq struct {
	src, dst         int32
	arrival, holding float64
}

// event is one scheduled operation on connection conn, due at offset due
// from the start of its phase.
type event struct {
	due  time.Duration
	conn int32
	kind opKind
}

// trace is a pre-generated open-loop schedule in the paper's §2 model:
// Poisson arrivals, exponential holding times, uniformly random distinct
// endpoints. Every connection is provisioned at its arrival and torn down at
// its departure; a share of connections is rerouted once at a uniformly
// random instant of its holding time.
type trace struct {
	conns  []connReq
	events []event // ascending due; ties keep generation order
}

type traceConfig struct {
	nodes       int
	rate        float64 // arrivals per second (or per simulated time unit)
	erlang      float64 // offered load; the mean holding time is erlang/rate
	rerouteFrac float64
	window      float64 // arrivals fall in [0, window)
	seed        int64
}

// genTrace builds the schedule for c. The same config gives the same trace.
func genTrace(c traceConfig) *trace {
	rng := rand.New(rand.NewSource(c.seed))
	hold := c.erlang / c.rate
	tr := &trace{}
	at := func(x float64) time.Duration { return time.Duration(x * 1e9) }
	for t := rng.ExpFloat64() / c.rate; t < c.window; t += rng.ExpFloat64() / c.rate {
		s := rng.Intn(c.nodes)
		d := rng.Intn(c.nodes - 1)
		if d >= s {
			d++
		}
		h := rng.ExpFloat64() * hold
		id := int32(len(tr.conns))
		tr.conns = append(tr.conns, connReq{src: int32(s), dst: int32(d), arrival: t, holding: h})
		tr.events = append(tr.events, event{due: at(t), conn: id, kind: opProvision})
		if rng.Float64() < c.rerouteFrac {
			tr.events = append(tr.events, event{due: at(t + rng.Float64()*h), conn: id, kind: opReroute})
		}
		tr.events = append(tr.events, event{due: at(t + h), conn: id, kind: opTeardown})
	}
	sort.SliceStable(tr.events, func(i, j int) bool { return tr.events[i].due < tr.events[j].due })
	return tr
}

// requests converts the trace to the simulator's input (reroute events are
// a daemon operation and have no simulator counterpart).
func (t *trace) requests() []workload.Request {
	out := make([]workload.Request, len(t.conns))
	for i, c := range t.conns {
		out[i] = workload.Request{ID: i, Src: int(c.src), Dst: int(c.dst), Arrival: c.arrival, Holding: c.holding}
	}
	return out
}

// subSeed derives an independent seed for one phase of a run (splitmix64),
// so phases of one run never share a random stream.
func subSeed(seed int64, tag uint64) int64 {
	z := uint64(seed) + tag*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
