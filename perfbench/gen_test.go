package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"
)

func traceBytes(t *testing.T, tr *trace) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, data := range []any{tr.conns, tr.events} {
		if err := binary.Write(&b, binary.LittleEndian, data); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

func TestTraceIsByteIdenticalForOneSeed(t *testing.T) {
	a := traceBytes(t, daemonTrace(7, 1, 3000, 2*time.Second))
	b := traceBytes(t, daemonTrace(7, 1, 3000, 2*time.Second))
	if !bytes.Equal(a, b) {
		t.Fatal("two traces of one seed differ")
	}
	if bytes.Equal(a, traceBytes(t, daemonTrace(8, 1, 3000, 2*time.Second))) {
		t.Fatal("traces of seeds 7 and 8 are identical")
	}
	if bytes.Equal(a, traceBytes(t, daemonTrace(7, 2, 3000, 2*time.Second))) {
		t.Fatal("two phases of one seed share a trace")
	}
}

// TestPoissonRate checks the arrival count and mean holding time of many
// seeded traces against the configured rate, within four standard errors.
func TestPoissonRate(t *testing.T) {
	const rate, window, erlang = 2000.0, 5.0, 30.0
	for seed := int64(1); seed <= 20; seed++ {
		tr := genTrace(traceConfig{nodes: 14, rate: rate, erlang: erlang, rerouteFrac: rerouteFrac, window: window, seed: seed})
		n := float64(len(tr.conns))
		mean := rate * window
		if math.Abs(n-mean) > 4*math.Sqrt(mean) {
			t.Errorf("seed %d: %v arrivals in %v s at %v/s, want %v ± %v", seed, n, window, rate, mean, 4*math.Sqrt(mean))
		}
		var hold float64
		for _, c := range tr.conns {
			hold += c.holding
			if c.src == c.dst || c.src < 0 || c.dst < 0 || c.src >= 14 || c.dst >= 14 {
				t.Fatalf("seed %d: bad endpoints %d→%d", seed, c.src, c.dst)
			}
		}
		// Exponential holding times: the standard error of the mean is mean/√n.
		if want := erlang / rate; math.Abs(hold/n-want) > 4*want/math.Sqrt(n) {
			t.Errorf("seed %d: mean holding %v, want %v", seed, hold/n, want)
		}
	}
}

// TestTraceOrder checks the schedule is sorted and every connection is
// provisioned first and torn down last.
func TestTraceOrder(t *testing.T) {
	tr := daemonTrace(3, 1, 4000, time.Second)
	first := make([]opKind, len(tr.conns))
	seen := make([]int, len(tr.conns))
	var reroutes int
	for i, ev := range tr.events {
		if i > 0 && ev.due < tr.events[i-1].due {
			t.Fatalf("event %d due %v before event %d at %v", i, ev.due, i-1, tr.events[i-1].due)
		}
		if seen[ev.conn] == 0 {
			first[ev.conn] = ev.kind
		} else if ev.kind == opProvision {
			t.Fatalf("connection %d provisioned twice", ev.conn)
		}
		if ev.kind == opReroute {
			reroutes++
		}
		seen[ev.conn]++
	}
	for c, k := range first {
		if k != opProvision {
			t.Fatalf("connection %d starts with a %s", c, k)
		}
	}
	if frac := float64(reroutes) / float64(len(tr.conns)); math.Abs(frac-rerouteFrac) > 0.02 {
		t.Errorf("reroute share %.3f, want %v", frac, rerouteFrac)
	}
}
