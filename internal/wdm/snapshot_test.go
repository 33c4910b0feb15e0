package wdm

import (
	"math"
	"testing"
)

// snapNet builds a small test network: 4 nodes in a ring, W=4, uniform cost.
func snapNet(t *testing.T) *Network {
	t.Helper()
	net := NewNetwork(4, 4)
	for v := 0; v < 4; v++ {
		net.AddUniformPair(v, (v+1)%4, 1)
	}
	return net
}

// availEqual compares the availability sets of two networks link by link.
func availEqual(a, b *Network) bool {
	if a.Links() != b.Links() {
		return false
	}
	for id := 0; id < a.Links(); id++ {
		as, bs := a.Link(id).Avail().Slice(), b.Link(id).Avail().Slice()
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
	}
	return true
}

func TestCloneSinceSharesUntouchedLinks(t *testing.T) {
	net := snapNet(t)
	snap0 := net.CloneSince(nil)

	// Touch exactly one link.
	if err := net.Use(3, 2); err != nil {
		t.Fatal(err)
	}
	snap1 := net.CloneSince(snap0)

	for id := 0; id < net.Links(); id++ {
		shared := snap1.Link(id) == snap0.Link(id)
		if id == 3 && shared {
			t.Errorf("link %d was touched but snap1 shares snap0's record", id)
		}
		if id != 3 && !shared {
			t.Errorf("link %d untouched but snap1 copied it", id)
		}
	}
	if !availEqual(snap1, net) {
		t.Fatal("snap1 availability differs from the source network")
	}
	if snap1.Link(3).HasAvail(2) {
		t.Fatal("snap1 shows λ2 available on link 3 after Use")
	}
	if !snap0.Link(3).HasAvail(2) {
		t.Fatal("snap0 (frozen) lost λ2 on link 3 — COW leaked a write")
	}
}

func TestCloneSinceSnapshotIsolation(t *testing.T) {
	net := snapNet(t)
	snap0 := net.CloneSince(nil)

	// A chain of epochs: mutate, snapshot, mutate again; every published
	// snapshot must keep showing the state it was taken at.
	if err := net.Use(0, 0); err != nil {
		t.Fatal(err)
	}
	snap1 := net.CloneSince(snap0)
	if err := net.Use(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.Use(5, 3); err != nil {
		t.Fatal(err)
	}
	snap2 := net.CloneSince(snap1)

	if !snap0.Link(0).HasAvail(0) {
		t.Fatal("snap0 lost λ0 on link 0")
	}
	if snap1.Link(0).HasAvail(0) || !snap1.Link(0).HasAvail(1) {
		t.Fatal("snap1 does not reflect exactly the first epoch's state")
	}
	if snap1.Link(5).Avail().Count() != 4 {
		t.Fatal("snap1 shows the second epoch's write on link 5")
	}
	if snap2.Link(0).HasAvail(1) || snap2.Link(5).HasAvail(3) {
		t.Fatal("snap2 does not reflect the second epoch's writes")
	}
	if !availEqual(snap2, net) {
		t.Fatal("snap2 availability differs from the source network")
	}
}

// TestCloneSinceAcrossTopologyChange: a structural edit after a snapshot
// was taken gives the source a new Topology, since the old one is shared.
// The next snapshot carries the new topology and copies the new link, while
// the older snapshot keeps the structure it was taken with.
func TestCloneSinceAcrossTopologyChange(t *testing.T) {
	net := snapNet(t)
	snap0 := net.CloneSince(nil)
	topo0 := snap0.Topology()

	id := net.AddUniformLink(0, 2, 2)
	snap1 := net.CloneSince(snap0)
	if snap1.Links() != net.Links() || snap1.Link(id).From != 0 || snap1.Link(id).To != 2 {
		t.Fatalf("snap1 misses the new link: %d links, want %d", snap1.Links(), net.Links())
	}
	if snap1.Topology() == topo0 || snap1.Topology() != net.Topology() {
		t.Fatal("snap1 does not carry the source's new topology")
	}
	if snap0.Links() != 8 || len(snap0.Out(0)) != 2 || snap0.Clone().Links() != 8 {
		t.Fatal("AddLink edited the shared topology in place")
	}
	if !availEqual(snap1, net) {
		t.Fatal("snap1 availability differs from the source network")
	}
	for l := 0; l < snap0.Links(); l++ {
		if snap1.Link(l) != snap0.Link(l) {
			t.Errorf("untouched link %d copied across the structural edit", l)
		}
	}

	// Converter swaps are structural too.
	net.SetConverter(1, NewRangeConverter(1, 2))
	snap2 := net.CloneSince(snap1)
	if snap2.Converter(1) == snap1.Converter(1) {
		t.Fatal("snap2 shares the swapped converter with snap1")
	}
	if _, ok := snap1.Converter(1).(*FullConverter); !ok {
		t.Fatal("snap1 lost its converter to a later edit")
	}
}

// TestCloneSinceLineage: snapshots join their source's lineage and share
// records only within it. A Clone starts a new lineage, and a snapshot that
// is written to leaves its lineage, so neither can donate stale records.
func TestCloneSinceLineage(t *testing.T) {
	net := snapNet(t)
	snap0 := net.CloneSince(nil)
	if snap0.Lineage() != net.Lineage() {
		t.Fatal("CloneSince snapshot left its source's lineage")
	}
	if net.Clone().Lineage() == net.Lineage() {
		t.Fatal("Clone joined its source's lineage")
	}

	// A foreign lineage shares nothing, even at equal versions.
	other := net.Clone()
	if snap := net.CloneSince(other); snap.Link(0) == other.Link(0) {
		t.Fatal("snapshot shares a record with a network of another lineage")
	}

	// A written snapshot leaves the lineage: net's next snapshot must not
	// reuse the records it holds, though they look untouched by net.
	if err := snap0.Use(4, 1); err != nil {
		t.Fatal(err)
	}
	if snap0.Lineage() == net.Lineage() {
		t.Fatal("written snapshot kept its source's lineage")
	}
	snap1 := net.CloneSince(snap0)
	if !snap1.Link(4).HasAvail(1) {
		t.Fatal("snapshot inherited a write made on an earlier snapshot")
	}

	// The source itself stays in its lineage when written.
	lin := net.Lineage()
	if err := net.Use(2, 0); err != nil {
		t.Fatal(err)
	}
	if net.Lineage() != lin {
		t.Fatal("source network left its own lineage on a write")
	}
}

func TestCloneSinceNilPrev(t *testing.T) {
	net := snapNet(t)
	if err := net.Use(1, 1); err != nil {
		t.Fatal(err)
	}
	snap := net.CloneSince(nil)
	if !availEqual(snap, net) {
		t.Fatal("CloneSince(nil) is not a faithful clone")
	}
	if snap.StateVersion() != net.StateVersion() || snap.Topology() != net.Topology() {
		t.Fatal("state version or topology not carried over")
	}
}

func TestCloneSinceCostAndLoadIntact(t *testing.T) {
	net := snapNet(t)
	snap0 := net.CloneSince(nil)
	if err := net.Use(2, 0); err != nil {
		t.Fatal(err)
	}
	snap := net.CloneSince(snap0)
	for id := 0; id < net.Links(); id++ {
		for lam := 0; lam < net.W(); lam++ {
			if got, want := snap.Link(id).Cost(lam), net.Link(id).Cost(lam); got != want &&
				!(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("link %d λ%d cost %g, want %g", id, lam, got, want)
			}
		}
	}
	if got, want := snap.NetworkLoad(), net.NetworkLoad(); got != want {
		t.Fatalf("snapshot load %g, want %g", got, want)
	}
}
