package wdm

import "sync/atomic"

// Topology is the structural half of a network: the node count, W, the
// links with their installed wavelength sets Λ(e) and cost tables w(e, λ),
// the adjacency lists, the conversion switches and the shared-risk groups.
// None of it depends on the residual state, so every Clone and CloneSince
// snapshot of a network shares one *Topology, and structures derived from
// structure alone (auxgraph skeletons, candidate tables) key on its identity.
//
// Networks expose its contents through their own accessors (Nodes, Out,
// Link(id).Lambda(), Converter, SRLGs, …). A Topology obtained from
// Network.Topology is immutable: the network copies it before its next
// structural edit (AddLink, SetConverter, SetSRLG), so the edit produces a
// new *Topology and every cache keyed on the old one misses. Edits made
// before the topology is first shared — building a network link by link —
// happen in place.
type Topology struct {
	n     int
	w     int
	links []*Link // structural records: ID, endpoints, Λ(e), costs; no avail
	out   [][]int // out[v] = link IDs with From == v (E_out(v))
	in    [][]int // in[v] = link IDs with To == v (E_in(v))
	conv  []Converter
	srlg  [][]int // srlg[link] = shared-risk group IDs (lazily allocated)

	// shared is set once the topology has escaped its network; from then on
	// it is read-only. Atomic because concurrent readers of one network
	// (routers on a published snapshot) all reach it through Topology().
	shared atomic.Bool
}

// clone returns an unshared copy of t for a structural edit. Link records
// and converters are immutable and shared; the slices an edit appends to or
// overwrites are copied.
func (t *Topology) clone() *Topology {
	c := &Topology{
		n:     t.n,
		w:     t.w,
		links: append([]*Link(nil), t.links...),
		out:   make([][]int, t.n),
		in:    make([][]int, t.n),
		conv:  append([]Converter(nil), t.conv...),
	}
	for v := 0; v < t.n; v++ {
		c.out[v] = append([]int(nil), t.out[v]...)
		c.in[v] = append([]int(nil), t.in[v]...)
	}
	if t.srlg != nil {
		c.srlg = append([][]int(nil), t.srlg...) // rows are replaced, never mutated
	}
	return c
}
