//go:build !race

// Allocation-regression tests, excluded from -race runs (the detector's
// instrumentation breaks testing.AllocsPerRun accounting).
package auxgraph

import (
	"fmt"
	"testing"
)

// TestIncrementalReweightZeroAllocs pins the incremental-reweight budget:
// once a skeleton (edge- or node-disjoint) is warm, re-weighting after a
// single-link availability change must allocate nothing — the journal limits
// the per-link weight refresh to the dirty link and the filter/terminal/hub
// passes reuse the skeleton's buffers.
func TestIncrementalReweightZeroAllocs(t *testing.T) {
	for _, nd := range []bool{false, true} {
		t.Run(fmt.Sprint("nodeDisjoint=", nd), func(t *testing.T) {
			net := fig1Net()
			sk := NewSkeleton(net, nd)
			for _, k := range []Kind{Cost, Load, LoadCost} {
				sk.Reweight(0, 2, Params{Kind: k, Threshold: 0.5})
			}
			if n := testing.AllocsPerRun(100, func() {
				if err := net.Use(0, 0); err != nil {
					t.Fatal(err)
				}
				sk.Reweight(0, 2, Params{Kind: Cost})
				sk.Reweight(1, 3, Params{Kind: Cost})
				if err := net.Release(0, 0); err != nil {
					t.Fatal(err)
				}
				sk.Reweight(0, 2, Params{Kind: LoadCost, Threshold: 0.5})
			}); n != 0 {
				t.Fatalf("warm incremental reweight allocates %v per op, want 0", n)
			}
		})
	}
}

// TestReweightUnchangedStateZeroAllocs pins the fully-clean fast path: with
// no state change at all between calls, a reweight (even switching the
// active terminal pair, and with it a node-disjoint skeleton's exempt hubs)
// must not allocate.
func TestReweightUnchangedStateZeroAllocs(t *testing.T) {
	for _, nd := range []bool{false, true} {
		t.Run(fmt.Sprint("nodeDisjoint=", nd), func(t *testing.T) {
			net := fig1Net()
			sk := NewSkeleton(net, nd)
			sk.Reweight(0, 2, Params{Kind: Cost})
			sk.Reweight(1, 3, Params{Kind: Cost})
			if n := testing.AllocsPerRun(100, func() {
				sk.Reweight(0, 2, Params{Kind: Cost})
				sk.Reweight(1, 3, Params{Kind: Cost})
			}); n != 0 {
				t.Fatalf("clean-state reweight allocates %v per op, want 0", n)
			}
		})
	}
}
