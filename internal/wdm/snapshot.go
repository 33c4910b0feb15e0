package wdm

// CloneSince returns a copy of g's residual state for publication as an
// immutable read snapshot. It shares g's topology and, when prev is an
// earlier snapshot of g's lineage, prev's frozen record of every link whose
// availability has not changed since prev was taken. This is the
// copy-on-write epoch layer of the serving daemon: with a per-epoch admission
// batch touching b links out of m, publishing the next snapshot costs O(b)
// link copies instead of O(m·W/64). Sharing is safe because snapshots are
// frozen and the mutable source shares none of its own records.
//
// The snapshot joins g's lineage, so caches computed on one snapshot refresh
// incrementally on the next. A nil prev, one from another lineage, or one
// newer than g gets no sharing. The receiver is not mutated.
func (g *Network) CloneSince(prev *Network) *Network {
	c := &Network{
		topo:         g.Topology(),
		links:        make([]*Link, len(g.links)),
		stateVersion: g.stateVersion,
		stamp:        append([]uint64(nil), g.stamp...),
		lineage:      g.lineage,
		follower:     true,
	}
	share := prev != nil && prev.lineage == g.lineage && prev.stateVersion <= g.stateVersion
	for i, l := range g.links {
		if share && g.stamp[i] <= prev.stateVersion {
			c.links[i] = prev.links[i] // untouched since prev: share its record
			continue
		}
		c.links[i] = l.withAvail(l.avail.Clone())
	}
	return c
}
