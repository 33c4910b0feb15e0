//go:build !race

// Allocation-regression tests, excluded from -race runs (the detector's
// instrumentation breaks testing.AllocsPerOp accounting).
package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// Allocation budgets for a warm Router on NSFNET (W=8). The graph search and
// the result arena are allocation-free; an owned result (no ReuseResult)
// costs exactly its copy — the Result, two semilightpath headers and their
// two hop slices — and an arena result (ReuseResult) costs nothing. A
// regression to per-request graph rebuilding costs ~900 allocs/op.
const (
	ownedResultAllocBudget = 5
	arenaResultAllocBudget = 0
)

func TestWarmRouterAllocBudget(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 8})
	for _, c := range []struct {
		opts   *Options
		budget float64
	}{
		{nil, ownedResultAllocBudget},
		{&Options{ReuseResult: true}, arenaResultAllocBudget},
	} {
		r := NewRouter(c.opts)
		for _, m := range []struct {
			name  string
			route func(*wdm.Network, int, int) (*Result, bool)
			s, t  int
		}{
			{"ApproxMinCost", r.ApproxMinCost, 0, 9},
			{"MinLoad", r.MinLoad, 2, 11},
			{"MinLoadCost", r.MinLoadCost, 2, 11},
		} {
			if _, ok := m.route(net, m.s, m.t); !ok {
				t.Fatalf("%s failed", m.name)
			}
			allocs := testing.AllocsPerRun(100, func() { m.route(net, m.s, m.t) })
			if allocs > c.budget {
				t.Errorf("warm Router.%s (ReuseResult=%v) = %.0f allocs/op, budget %.0f",
					m.name, c.opts != nil, allocs, c.budget)
			}
		}
	}
}

// TestTracerDisabledAddsNoAllocs pins the observability contract from PR 2's
// zero-allocation work: a Router carrying a disabled tracer must allocate
// exactly as much per request as a Router with no tracer at all — the off
// switch is one atomic load, not a dormant code path that still builds
// traces.
func TestTracerDisabledAddsNoAllocs(t *testing.T) {
	net := topo.NSFNET(topo.Config{W: 8})

	plain := NewRouter(nil)
	if _, ok := plain.ApproxMinCost(net, 0, 9); !ok {
		t.Fatal("ApproxMinCost failed")
	}
	base := testing.AllocsPerRun(200, func() {
		plain.ApproxMinCost(net, 0, 9)
	})

	traced := NewRouter(nil)
	tr := obs.New(obs.Config{})
	tr.Disable()
	traced.SetTracer(tr)
	if _, ok := traced.ApproxMinCost(net, 0, 9); !ok {
		t.Fatal("ApproxMinCost failed")
	}
	withTracer := testing.AllocsPerRun(200, func() {
		traced.ApproxMinCost(net, 0, 9)
	})

	if withTracer != base {
		t.Errorf("disabled tracer changed allocs/op: %.0f with tracer vs %.0f without", withTracer, base)
	}
	if n := tr.Flight().Total(); n != 0 {
		t.Errorf("disabled tracer recorded %d traces", n)
	}
}
