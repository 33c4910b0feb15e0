// Package auxgraph builds the edge-node auxiliary graphs of the paper. All
// three variants share one skeleton — two edge-nodes per physical link
// (u_out^e at the tail, v_in^e at the head), a link edge between them,
// conversion edges v_in^e → v_out^e' inside every node, and terminal
// vertices s′_v and t″_v for every node — and differ only in the link filter
// and the weight assignment:
//
//   - Cost (G′, §3.3.1): link edges weighted by the mean available-wavelength
//     cost Σ_{λ∈Λ_avail(e)} w(e,λ)/|Λ_avail(e)|; conversion edges by the mean
//     conversion cost Σ c_v(λa,λb)/K_v over allowed pairs.
//   - Load (G_c, §4.1): only links with U(e)/N(e) < ϑ survive; link edges get
//     the exponential congestion weight a^{(U(e)+1)/N(e)} − a^{U(e)/N(e)};
//     conversion edges weigh 0.
//   - LoadCost (G_rc, §4.2): the Load filter with cost weights — link edges
//     get Σ_{λ∈Λ_avail(e)} w(e,λ)/N(e), conversion edges the mean conversion
//     cost as in G′.
//
// The skeleton depends only on the network's wdm.Topology (links, installed
// wavelength sets, converters) and never on its residual state or on the
// request, so construction is split in two: NewSkeleton builds the full
// vertex and edge inventory once per topology, and Reweight(s, t, p) selects
// the request's terminal pair, flips the Disable bits of filtered links and
// rewrites edge weights in place from the bound network's state — so one
// skeleton serves every (s, t) of a dynamic workload and every variant a
// threshold search tries. Rebind moves a skeleton to any other network of the
// same topology (a Clone, or the next CloneSince snapshot of a serving epoch)
// without rebuilding it. Build remains the one-shot convenience wrapper
// (skeleton + one reweight).
//
// A node-disjoint skeleton (NewSkeleton(net, true)) funnels the conversion
// edges of every node through a unit-capacity hub gadget instead, so an
// edge-disjoint pair on the auxiliary graph maps to an internally
// node-disjoint pair on the physical network (protection against single node
// failures, §1). Reweight disables the hubs of the active s and t, as it
// gates their terminals; with non-negative weights a minimum pair never
// converts at its own endpoints anyway. The gadget assumes pairwise
// conversion feasibility at each node — exact under the §3.3 full-conversion
// assumption; with restricted converters the refinement step re-checks
// feasibility.
//
// Reweight is incremental: link-edge weights and conversion-pair means are
// cached per (state lineage, StateVersion) and refreshed through the
// network's per-link change journal (wdm.LinkStamp), so a reservation on one
// link recomputes only the skeleton edges incident to that link. The cache is
// sound because every network of one lineage at one version holds the same
// state, and every StateVersion advance stems from an availability mutation
// that stamps its link's journal entry. A network from another lineage, or an
// older version, gets a full recompute.
package auxgraph

import (
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/wdm"
)

// Kind selects the auxiliary-graph variant.
type Kind int

const (
	// Cost is G′ of §3.3.1.
	Cost Kind = iota
	// Load is G_c of §4.1.
	Load
	// LoadCost is G_rc of §4.2.
	LoadCost
)

func (k Kind) String() string {
	switch k {
	case Cost:
		return "cost"
	case Load:
		return "load"
	case LoadCost:
		return "load-cost"
	}
	return "unknown"
}

// DefaultBase is the default exponent base a for the Load weights. Any a > 1
// realises the paper's heuristic; larger bases penalise loaded links more
// steeply.
const DefaultBase = 10.0

// Params configures Build and Reweight.
type Params struct {
	Kind Kind
	// Threshold is ϑ for Load/LoadCost: links with load ≥ ϑ are dropped.
	// Ignored by Cost.
	Threshold float64
	// Base is the exponent base a (> 1) for Load weights; DefaultBase if 0.
	Base float64
	// Filter, when non-nil, replaces the threshold test: a link survives iff
	// it has available wavelengths and Filter returns true. Used by exact
	// load oracles that need a per-link capacity cap.
	Filter func(linkID int) bool
	// Trace, when non-nil, receives a "reweight" span per Reweight call with
	// the variant, threshold and surviving-link count. Nil costs nothing.
	Trace *obs.Trace
}

// Aux is a built auxiliary graph together with the bookkeeping needed to map
// paths back to the physical network. Links dropped by the current filter
// remain in the graph as vertices with their incident edges disabled; every
// traversal-facing accessor (OutNode, InNode, Dijkstra over G) sees exactly
// the surviving subgraph.
type Aux struct {
	G *graph.Graph
	S int // s′ of the active request
	T int // t″ of the active request

	outNode []int  // outNode[e] = aux vertex of u_out^e
	inNode  []int  // inNode[e] = aux vertex of v_in^e
	keep    []bool // keep[e] = link e survives the current filter
}

// Skeleton is the reusable edge-node structure for one topology and
// protection discipline (edge- or node-disjoint). It is built once with
// NewSkeleton and re-weighted any number of times, for any (s, t), with
// Reweight, on the network it was built from or on any network Rebind points
// it at, as long as that network's Topology is the one it was built on;
// reservations and releases only change weights and filters, which Reweight
// recomputes in place.
//
// A Skeleton is not safe for concurrent use, and the *Aux returned by
// Reweight aliases the skeleton: a later Reweight rewrites it in place.
type Skeleton struct {
	aux  Aux
	net  *wdm.Network  // the network Reweight reads residual state from
	topo *wdm.Topology // the structure the skeleton was built on

	linkEdge []int // linkEdge[e] = aux edge ID of e's link edge

	// All conversion pairs, grouped by node in construction order. Plain
	// pairs carry their conversion edge; pairs funneled through a hub gadget
	// carry edge -1 and are referenced by their hub's [pairLo, pairHi) range.
	pairs       []convPair
	pairOK      []bool    // cached avail-feasibility per pair
	pairMean    []float64 // cached mean conversion cost per pair
	pairsByLink [][]int32 // pair indices with ein or eout = link, for journal refresh
	pairsLin    uint64    // lineage the pair cache was computed on (0: never)
	pairsAt     uint64    // StateVersion the pair cache was computed at

	// Cached link-edge weights, one cache per variant so algorithms that
	// alternate kinds (MinLoadCost's Load rounds then LoadCost pass) don't
	// thrash each other. Refreshed per link through the change journal.
	lw [3]weightCache

	hubs     []hubGadget
	spokeIn  []linkEdgeRef // v_in^e → hub_in(v), node-disjoint only
	spokeOut []linkEdgeRef // hub_out(v) → u_out^e, node-disjoint only

	// Per-node terminal edge groups, all disabled except the active pair's.
	termOut    [][]linkEdgeRef // s′_v → u_out^e, per node
	termIn     [][]linkEdgeRef // v_in^e → t″_v, per node
	curS, curT int             // active terminal pair; -1 before the first Reweight
}

// weightCache holds one variant's per-link edge weights together with the
// state (lineage, StateVersion) they were computed at; links whose journal
// stamp exceeds that version are recomputed on the next Reweight, all others
// are reused. Lineage IDs start at 1, so the zero cache matches no network.
type weightCache struct {
	lin  uint64
	at   uint64
	base float64 // exponent base the Load weights were computed with
	w    []float64
}

type convPair struct {
	edge      int // aux edge ID, or -1 for hub-gadget pairs
	node      int
	ein, eout int
}

type hubGadget struct {
	node           int
	hubEdge        int // aux edge ID of hub_in(v) → hub_out(v)
	pairLo, pairHi int // this hub's range in Skeleton.pairs
}

type linkEdgeRef struct {
	edge int // aux edge ID
	link int // physical link whose keep bit gates the edge
}

// Build constructs the edge-disjoint auxiliary graph for routing from s to t
// on the residual network. It panics on invalid s/t and never fails
// otherwise: an unroutable request simply yields a graph in which t″ is
// unreachable. It is the one-shot wrapper around NewSkeleton + Reweight; hot
// paths should hold a Skeleton (usually via core.Router) and Reweight it
// instead.
func Build(net *wdm.Network, s, t int, p Params) *Aux {
	return NewSkeleton(net, false).Reweight(s, t, p)
}

// NewSkeleton builds the full edge-node skeleton of net's topology: vertices
// and edges for every physical link, conversion edges for every pair
// feasible under the installed wavelength sets (a superset of every residual
// feasibility) — funneled through one hub gadget per node when nodeDisjoint —
// and terminal vertices and edges for every node. All edge weights are unset
// and all terminal edges disabled until the first Reweight selects a pair.
func NewSkeleton(net *wdm.Network, nodeDisjoint bool) *Skeleton {
	defer instr.buildTime.Stop(instr.buildTime.Start())
	m, n := net.Links(), net.Nodes()
	sk := &Skeleton{
		net:      net,
		topo:     net.Topology(),
		linkEdge: make([]int, m),
		termOut:  make([][]linkEdgeRef, n),
		termIn:   make([][]linkEdgeRef, n),
		curS:     -1,
		curT:     -1,
	}
	a := &sk.aux
	a.S, a.T = -1, -1
	a.outNode = make([]int, m)
	a.inNode = make([]int, m)
	a.keep = make([]bool, m)

	// Vertex layout: for link e, out-node 2e, in-node 2e+1; then s′_v at
	// 2m+2v and t″_v at 2m+2v+1; then, when node-disjoint, hub_in(v) at
	// 2m+2n+2v and hub_out(v) at 2m+2n+2v+1.
	for id := 0; id < m; id++ {
		a.outNode[id] = 2 * id
		a.inNode[id] = 2*id + 1
	}
	nv := 2*m + 2*n
	if nodeDisjoint {
		nv += 2 * n
	}
	a.G = graph.New(nv)

	// Link edges u_out^e → v_in^e.
	for id := 0; id < m; id++ {
		sk.linkEdge[id] = a.G.AddEdgeAux(a.outNode[id], a.inNode[id], 0, id)
	}

	// Conversion edges inside each node: v_in^e → v_out^e' for every pair
	// with at least one feasible conversion over the installed sets (pairs
	// infeasible even at full availability can never become feasible). Under
	// the node-disjoint variant they are funneled through a unit-capacity hub
	// instead; a node without a feasible pair gets no hub and can never be
	// traversed.
	for v := 0; v < n; v++ {
		conv := net.Converter(v)
		lo := len(sk.pairs)
		for _, ein := range net.In(v) {
			for _, eout := range net.Out(v) {
				if !installedFeasible(net, conv, ein, eout) {
					continue
				}
				e := -1
				if !nodeDisjoint {
					e = a.G.AddEdgeAux(a.inNode[ein], a.outNode[eout], 0, -1)
				}
				sk.pairs = append(sk.pairs, convPair{edge: e, node: v, ein: ein, eout: eout})
			}
		}
		if !nodeDisjoint || len(sk.pairs) == lo {
			continue
		}
		hubIn := 2*m + 2*n + 2*v
		hubEdge := a.G.AddEdgeAux(hubIn, hubIn+1, 0, -1)
		sk.hubs = append(sk.hubs, hubGadget{node: v, hubEdge: hubEdge, pairLo: lo, pairHi: len(sk.pairs)})
		for _, ein := range net.In(v) {
			e := a.G.AddEdgeAux(a.inNode[ein], hubIn, 0, -1)
			sk.spokeIn = append(sk.spokeIn, linkEdgeRef{edge: e, link: ein})
		}
		for _, eout := range net.Out(v) {
			e := a.G.AddEdgeAux(hubIn+1, a.outNode[eout], 0, -1)
			sk.spokeOut = append(sk.spokeOut, linkEdgeRef{edge: e, link: eout})
		}
	}
	sk.pairOK = make([]bool, len(sk.pairs))
	sk.pairMean = make([]float64, len(sk.pairs))
	sk.pairsByLink = make([][]int32, m)
	for i, cp := range sk.pairs {
		sk.pairsByLink[cp.ein] = append(sk.pairsByLink[cp.ein], int32(i))
		if cp.eout != cp.ein {
			sk.pairsByLink[cp.eout] = append(sk.pairsByLink[cp.eout], int32(i))
		}
	}

	// Terminals s′_v → u_out^e and v_in^e → t″_v for every node, disabled
	// until a Reweight selects the pair.
	first := a.G.M()
	for v := 0; v < n; v++ {
		for _, e1 := range net.Out(v) {
			e := a.G.AddEdgeAux(2*m+2*v, a.outNode[e1], 0, -1)
			sk.termOut[v] = append(sk.termOut[v], linkEdgeRef{edge: e, link: e1})
		}
		for _, e2 := range net.In(v) {
			e := a.G.AddEdgeAux(a.inNode[e2], 2*m+2*v+1, 0, -1)
			sk.termIn[v] = append(sk.termIn[v], linkEdgeRef{edge: e, link: e2})
		}
	}
	for e := first; e < a.G.M(); e++ {
		a.G.Disable(e)
	}
	instr.builds.Inc()
	instr.vertices.Observe(float64(a.G.N()))
	instr.edges.Observe(float64(a.G.M()))
	return sk
}

// Rebind points the skeleton at net, the network later Reweight calls read
// residual state from. net must share the skeleton's Topology; the weight
// caches carry over, refreshed incrementally when net continues the previous
// network's lineage and in full otherwise.
func (sk *Skeleton) Rebind(net *wdm.Network) { sk.net = net }

// Reweight selects (s, t) as the active request and recomputes the
// surviving-link filter and every edge weight in place from the bound
// network's current residual state, returning the aux-graph view. No
// vertices or edges are added or removed: the previous pair's terminal edges
// are disabled and the requested pair's enabled (gated by the link filter),
// the hubs of s and t are disabled on a node-disjoint skeleton, dropped links
// and infeasible conversions are Disabled, and everything else is Enabled
// with its variant weight. The availability-dependent link weights and
// conversion means are cached per StateVersion and refreshed incrementally
// through the network's change journal — a reservation on one link
// recomputes only that link's weight and the conversion pairs incident to
// it, and a threshold search that only moves ϑ between rounds pays just the
// O(m + conv-edges) filter pass. It panics on invalid s/t, when the bound
// network's Topology is not the one the skeleton was built on, or on an
// invalid Base.
//
//wdm:hotpath
func (sk *Skeleton) Reweight(s, t int, p Params) *Aux {
	net := sk.net
	if s < 0 || s >= net.Nodes() || t < 0 || t >= net.Nodes() {
		panic("auxgraph: source/destination out of range")
	}
	if net.Topology() != sk.topo {
		panic("auxgraph: network topology differs from the skeleton's; build a new skeleton")
	}
	base := p.Base
	if base == 0 {
		base = DefaultBase
	}
	if base <= 1 {
		panic("auxgraph: exponent base must exceed 1")
	}
	defer instr.reweightTime.Stop(instr.reweightTime.Start())
	sp := p.Trace.Begin("reweight")

	g := sk.aux.G
	keep := sk.aux.keep
	lin, sv := net.Lineage(), net.StateVersion()

	if sk.curS != s && sk.curS >= 0 {
		for _, r := range sk.termOut[sk.curS] {
			g.Disable(r.edge)
		}
	}
	if sk.curT != t && sk.curT >= 0 {
		for _, r := range sk.termIn[sk.curT] {
			g.Disable(r.edge)
		}
	}
	sk.curS, sk.curT = s, t
	sk.aux.S = 2*len(sk.linkEdge) + 2*s
	sk.aux.T = 2*len(sk.linkEdge) + 2*t + 1

	// Refresh this variant's cached link-edge weights: recompute every link
	// on the first use, on a network the journal cannot bridge to, or when
	// the Load base moves; only journal-dirty links otherwise.
	wc := &sk.lw[p.Kind]
	if wc.w == nil {
		//wdmlint:ignore hotalloc one-time lazy initialization of the per-variant weight cache
		wc.w = make([]float64, len(sk.linkEdge))
	}
	full := wc.lin != lin || wc.at > sv || (p.Kind == Load && wc.base != base)
	if full || wc.at != sv {
		for id := 0; id < len(sk.linkEdge); id++ {
			if !full && net.LinkStamp(id) <= wc.at {
				continue
			}
			wc.w[id] = linkWeight(net.Link(id), p.Kind, base)
		}
		wc.lin, wc.at, wc.base = lin, sv, base
	}

	// Link filter + link-edge weights.
	for id := 0; id < len(sk.linkEdge); id++ {
		l := net.Link(id)
		k := !l.Avail().Empty()
		if k {
			if p.Filter != nil {
				k = p.Filter(id)
			} else if (p.Kind == Load || p.Kind == LoadCost) && l.Load() >= p.Threshold {
				k = false
			}
		}
		keep[id] = k
		eid := sk.linkEdge[id]
		if !k {
			g.Disable(eid)
			g.SetWeight(eid, 0)
			continue
		}
		g.Enable(eid)
		g.SetWeight(eid, wc.w[id])
	}

	// Availability-dependent conversion means: full scan when the journal
	// cannot bridge from the cached state, else only the pairs incident to
	// journal-dirty links.
	if sk.pairsLin != lin || sk.pairsAt > sv {
		for i, cp := range sk.pairs {
			sk.pairOK[i], sk.pairMean[i] = meanConvCost(net, net.Converter(cp.node), cp.ein, cp.eout)
		}
	} else if sk.pairsAt != sv {
		for id := 0; id < len(sk.linkEdge); id++ {
			if net.LinkStamp(id) <= sk.pairsAt {
				continue
			}
			for _, i := range sk.pairsByLink[id] {
				cp := sk.pairs[i]
				sk.pairOK[i], sk.pairMean[i] = meanConvCost(net, net.Converter(cp.node), cp.ein, cp.eout)
			}
		}
	}
	sk.pairsLin, sk.pairsAt = lin, sv

	costed := p.Kind == Cost || p.Kind == LoadCost
	for i, cp := range sk.pairs {
		if cp.edge < 0 {
			continue // hub-gadget pair, folded into its hub edge below
		}
		if keep[cp.ein] && keep[cp.eout] && sk.pairOK[i] {
			g.Enable(cp.edge)
			if costed {
				g.SetWeight(cp.edge, sk.pairMean[i])
			} else {
				g.SetWeight(cp.edge, 0)
			}
		} else {
			g.Disable(cp.edge)
			g.SetWeight(cp.edge, 0)
		}
	}

	for _, hb := range sk.hubs {
		sum, cnt := 0.0, 0
		if hb.node != s && hb.node != t { // endpoints never convert
			for i := hb.pairLo; i < hb.pairHi; i++ {
				cp := sk.pairs[i]
				if keep[cp.ein] && keep[cp.eout] && sk.pairOK[i] {
					sum += sk.pairMean[i]
					cnt++
				}
			}
		}
		if cnt == 0 {
			g.Disable(hb.hubEdge)
			g.SetWeight(hb.hubEdge, 0)
			continue
		}
		g.Enable(hb.hubEdge)
		if costed {
			g.SetWeight(hb.hubEdge, sum/float64(cnt))
		} else {
			g.SetWeight(hb.hubEdge, 0)
		}
	}
	//wdmlint:ignore hotalloc non-escaping closure; stays on the stack
	gate := func(refs []linkEdgeRef) {
		for _, r := range refs {
			if keep[r.link] {
				g.Enable(r.edge)
			} else {
				g.Disable(r.edge)
			}
		}
	}
	gate(sk.spokeIn)
	gate(sk.spokeOut)
	gate(sk.termOut[s])
	gate(sk.termIn[t])

	instr.reweights.Inc()
	if p.Trace != nil {
		kept := 0
		for id := 0; id < len(sk.linkEdge); id++ {
			if keep[id] {
				kept++
			}
		}
		p.Trace.SpanStr(sp, "kind", p.Kind.String())
		if p.Kind == Load || p.Kind == LoadCost {
			p.Trace.SpanFloat(sp, "threshold", p.Threshold)
		}
		p.Trace.SpanInt(sp, "kept_links", int64(kept))
		p.Trace.EndSpan(sp)
	}
	return &sk.aux
}

// linkWeight returns the variant weight of a surviving link edge.
func linkWeight(l *wdm.Link, kind Kind, base float64) float64 {
	switch kind {
	case Cost:
		return l.MeanAvailCost()
	case Load:
		n := float64(l.N())
		u := float64(l.U())
		return math.Pow(base, (u+1)/n) - math.Pow(base, u/n)
	case LoadCost:
		return l.MeanInstalledCost()
	}
	return 0
}

// installedFeasible reports whether any conversion from a wavelength
// installed on ein to one installed on eout is allowed at the shared node —
// the structural superset of meanConvCost's availability test.
func installedFeasible(net *wdm.Network, conv wdm.Converter, ein, eout int) bool {
	in := net.Link(ein).Lambda()
	out := net.Link(eout).Lambda()
	switch conv.(type) {
	case *wdm.FullConverter:
		return !in.Empty() && !out.Empty()
	case wdm.NoConverter:
		return in.Intersects(out)
	}
	feasible := false
	in.ForEach(func(la int) bool {
		out.ForEach(func(lb int) bool {
			if la == lb || conv.Allowed(la, lb) {
				feasible = true
				return false
			}
			return true
		})
		return !feasible
	})
	return feasible
}

// meanConvCost returns whether any allowed conversion exists from the
// available wavelengths of ein to those of eout at the shared node, and the
// mean cost Σ c_v(λa, λb)/K_v over the K_v allowed ordered pairs (identity
// pairs count, at cost 0, matching the Theorem 2 accounting).
func meanConvCost(net *wdm.Network, conv wdm.Converter, ein, eout int) (bool, float64) {
	in := net.Link(ein).Avail()
	out := net.Link(eout).Avail()
	// Closed forms for the stock converters replace the O(W²) ordered-pair
	// scan with word-at-a-time popcounts on the availability bitsets: under
	// full conversion every ordered pair is allowed (K = |in|·|out|, the
	// |in ∩ out| identity pairs cost 0), and without conversion only the
	// identity pairs exist.
	switch c := conv.(type) {
	case *wdm.FullConverter:
		k := in.Count() * out.Count()
		if k == 0 {
			return false, 0
		}
		ident := in.IntersectCount(out)
		return true, c.UniformCost() * float64(k-ident) / float64(k)
	case wdm.NoConverter:
		return in.Intersects(out), 0
	}
	k := 0
	sum := 0.0
	//wdmlint:ignore hotalloc non-escaping closure; stays on the stack
	in.ForEach(func(la int) bool {
		//wdmlint:ignore hotalloc non-escaping closure; stays on the stack
		out.ForEach(func(lb int) bool {
			if la == lb {
				k++
			} else if conv.Allowed(la, lb) {
				k++
				sum += conv.Cost(la, lb)
			}
			return true
		})
		return true
	})
	if k == 0 {
		return false, 0
	}
	return true, sum / float64(k)
}

// Inventory counts what the active request's graph enables: its enabled
// edges, and the vertices incident to at least one of them. The skeleton
// carries every node's terminals (and, node-disjoint, every node's hub), so
// this — not G.N()/G.M() — is the size of the §3.3.1 graph for one request.
func (a *Aux) Inventory() (vertices, edges int) {
	seen := make([]bool, a.G.N())
	for id := 0; id < a.G.M(); id++ {
		if a.G.Disabled(id) {
			continue
		}
		edges++
		e := a.G.Edge(id)
		for _, v := range [2]int{e.From, e.To} {
			if !seen[v] {
				seen[v] = true
				vertices++
			}
		}
	}
	return vertices, edges
}

// OutNode returns the aux vertex of u_out^e for link e, or −1 if the link is
// filtered out under the current weights.
func (a *Aux) OutNode(link int) int {
	if !a.keep[link] {
		return -1
	}
	return a.outNode[link]
}

// InNode returns the aux vertex of v_in^e for link e, or −1 if filtered.
func (a *Aux) InNode(link int) int {
	if !a.keep[link] {
		return -1
	}
	return a.inNode[link]
}

// MapPath translates an aux edge-ID path into the ordered physical link IDs
// it traverses (its link edges, in order).
func (a *Aux) MapPath(path []int) []int {
	return a.AppendMapPath(nil, path)
}

// AppendMapPath appends the physical link IDs of path onto buf and returns
// the extended slice — the allocation-free variant of MapPath.
func (a *Aux) AppendMapPath(buf []int, path []int) []int {
	for _, id := range path {
		if aux := a.G.Edge(id).Aux; aux >= 0 {
			//wdmlint:ignore hotalloc appends into the caller's reusable buffer; growth amortizes to zero
			buf = append(buf, aux)
		}
	}
	return buf
}
