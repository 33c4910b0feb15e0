package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/auxgraph"
	"repro/internal/metrics"
	"repro/internal/topo"
	"repro/internal/wdm"
)

// TestCandidateTableKeyedOnTopology is the regression test for a candidate
// table serving a network it was not built on. A and B have the same node
// count and the same number of structural edits but different links; a table
// built from A must not answer for B, where its routes (link 8 is 0→2 on A,
// 1→3 on B) are not even contiguous.
func TestCandidateTableKeyedOnTopology(t *testing.T) {
	build := func(pairs [][2]int) *wdm.Network {
		net := wdm.NewNetwork(4, 2)
		for _, p := range pairs {
			net.AddUniformPair(p[0], p[1], 1)
		}
		return net
	}
	a := build([][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	b := build([][2]int{{0, 2}, {2, 1}, {1, 3}, {3, 0}, {1, 3}})

	r := NewRouter(&Options{CandidateTable: NewCandidateTable(a, 4)})
	res, ok := r.ApproxMinCost(b, 0, 2)
	if !ok {
		t.Fatal("no route 0→2 on B")
	}
	if tier := r.LastTier(); tier != TierExact {
		t.Fatalf("answered on the %s tier with a table built for another topology", tier)
	}
	for _, p := range []*wdm.Semilightpath{res.Primary, res.Backup} {
		if err := p.Validate(b, 0, 2); err != nil {
			t.Fatalf("route %v invalid on B: %v", p.LinkIDs(), err)
		}
	}

	// The table still serves every network sharing A's topology.
	if _, ok := r.ApproxMinCost(a.Clone(), 0, 2); !ok || r.LastTier() != TierCandidate {
		t.Fatalf("table not used on a clone of A (ok=%v, tier %s)", ok, r.LastTier())
	}
}

// TestRouterFollowsSnapshotLineage drives one Router through the snapshots
// a serving daemon publishes — CloneSince copies of one mutating network —
// and checks every answer against a fresh Router on the same network. The
// run steps back to an older snapshot, routes on a Clone that then diverges
// from its source, and on a snapshot that was written to after publication,
// so the warm router meets every case where its cached weights must be
// recomputed in full rather than refreshed from the journal. The skeleton is
// built exactly once: every network shares one topology.
func TestRouterFollowsSnapshotLineage(t *testing.T) {
	reg := metrics.NewRegistry()
	auxgraph.EnableMetrics(reg)
	defer auxgraph.EnableMetrics(nil)
	builds := reg.Counter("auxgraph_builds_total", "")

	head := topo.NSFNET(topo.Config{W: 4})
	rng := rand.New(rand.NewSource(7))
	warm := NewRouter(nil)
	var warmBuilds int64

	type algo func(r *Router, net *wdm.Network, s, d int) (*Result, bool)
	algos := []algo{
		(*Router).ApproxMinCost,
		(*Router).MinLoad,
		(*Router).MinLoadCost,
	}
	step := 0
	// route checks the warm router against a fresh one on net and returns
	// the fresh result.
	route := func(what string, net *wdm.Network) (*Result, bool) {
		step++
		s := rng.Intn(net.Nodes())
		d := rng.Intn(net.Nodes() - 1)
		if d >= s {
			d++
		}
		alg := algos[step%len(algos)]
		before := builds.Value()
		rW, okW := alg(warm, net, s, d)
		warmBuilds += builds.Value() - before
		rF, okF := alg(NewRouter(nil), net, s, d)
		if got, want := resultString(rW, okW), resultString(rF, okF); got != want {
			t.Fatalf("step %d (%s, %d→%d, algo %d): warm %s != fresh %s",
				step, what, s, d, step%len(algos), got, want)
		}
		return rF, okF
	}
	var live []*Result
	// churn applies one arrival (routed on the snapshot, as a shard does)
	// and, every third step, one departure to the mutable network.
	churn := func(net, snap *wdm.Network, live *[]*Result) {
		if res, ok := route("churn", snap); ok {
			if err := Establish(net, res); err != nil {
				t.Fatal(err)
			}
			*live = append(*live, res)
		}
		if step%3 == 0 && len(*live) > 0 {
			j := rng.Intn(len(*live))
			if err := Teardown(net, (*live)[j]); err != nil {
				t.Fatal(err)
			}
			*live = append((*live)[:j], (*live)[j+1:]...)
		}
	}

	snaps := []*wdm.Network{head.CloneSince(nil)}
	publish := func() *wdm.Network {
		s := head.CloneSince(snaps[len(snaps)-1])
		for id := 0; id < head.Links(); id++ {
			if !s.Link(id).Avail().Equal(head.Link(id).Avail()) {
				t.Fatalf("step %d: snapshot link %d differs from the network it copies", step, id)
			}
		}
		snaps = append(snaps, s)
		return s
	}
	for i := 0; i < 60; i++ {
		churn(head, snaps[len(snaps)-1], &live)
		publish()
	}

	// Step back: an older snapshot of the same lineage.
	route("older snapshot", snaps[len(snaps)/2])
	route("current snapshot", snaps[len(snaps)-1])

	// A Clone that diverges: a new lineage whose versions overlap head's.
	fork := snaps[len(snaps)-1].Clone()
	forkLive := append([]*Result(nil), live...)
	forkSnap := fork.CloneSince(nil)
	for i := 0; i < 20; i++ {
		churn(fork, forkSnap, &forkLive)
		forkSnap = fork.CloneSince(forkSnap)
		churn(head, snaps[len(snaps)-1], &live)
		publish()
	}

	// A snapshot written to after publication leaves head's lineage: once
	// head's version passes the written snapshot's, head's journal says
	// nothing about the snapshot's writes.
	written := publish()
	route("pre-write", written)
	for id := 0; id < written.Links(); id++ {
		if lam := written.Link(id).Avail().Min(); lam >= 0 {
			if err := written.Use(id, lam); err != nil {
				t.Fatal(err)
			}
		}
	}
	route("written snapshot", written)
	for len(live) > 0 && head.StateVersion() <= written.StateVersion() {
		if err := Teardown(head, live[0]); err != nil {
			t.Fatal(err)
		}
		live = live[1:]
	}
	publish()
	after := head.CloneSince(nil) // no records from the written snapshot
	for range algos {
		route("after write", after)
	}

	for i := 0; i < 20; i++ {
		churn(head, snaps[len(snaps)-1], &live)
		publish()
	}
	if warmBuilds != 1 {
		t.Fatalf("warm router built %d skeletons over %d steps on one topology, want 1", warmBuilds, step)
	}
}

// resultString renders a routing result exactly: every hop, wavelength and
// float.
func resultString(r *Result, ok bool) string {
	if !ok {
		return "blocked"
	}
	return fmt.Sprintf("%v|%v|%v|%v|%v|%v", r.Primary.Hops, r.Backup.Hops,
		r.Cost, r.AuxWeight, r.PathLoad, r.Threshold)
}

// TestNodeDisjointSkeletonBuiltOnce: node-disjoint requests share one
// skeleton per topology, like edge-disjoint ones — the endpoint exemption is
// applied per Reweight, not baked into a per-pair build.
func TestNodeDisjointSkeletonBuiltOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	auxgraph.EnableMetrics(reg)
	defer auxgraph.EnableMetrics(nil)
	builds := reg.Counter("auxgraph_builds_total", "")

	net := topo.NSFNET(topo.Config{W: 8})
	r := NewRouter(nil)
	before := builds.Value()
	for pass := 0; pass < 3; pass++ {
		for s := 0; s < net.Nodes(); s++ {
			for d := 0; d < net.Nodes(); d++ {
				if s == d {
					continue
				}
				if _, ok := r.ApproxMinCostNodeDisjoint(net, s, d); !ok {
					t.Fatalf("pass %d: no node-disjoint pair %d→%d", pass, s, d)
				}
			}
		}
	}
	if got := builds.Value() - before; got != 1 {
		t.Fatalf("3 passes over every NSFNET pair built %d skeletons, want 1", got)
	}
}
