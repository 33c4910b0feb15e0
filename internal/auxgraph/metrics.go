package auxgraph

import "repro/internal/metrics"

// instruments holds the package's metric hooks. All fields are nil until
// EnableMetrics is called, and nil instruments are no-ops, so the layer is
// default-off.
type instruments struct {
	builds       *metrics.Counter
	buildTime    *metrics.Timer
	reweights    *metrics.Counter
	reweightTime *metrics.Timer
	vertices     *metrics.Histogram
	edges        *metrics.Histogram
}

var instr instruments

// EnableMetrics registers the package's instruments on r and routes all
// subsequent Build calls through them. A nil registry disables them again.
func EnableMetrics(r *metrics.Registry) {
	instr = instruments{
		builds:       r.Counter("auxgraph_builds_total", "auxiliary graph skeletons constructed"),
		buildTime:    r.Timer("auxgraph_build_seconds", "auxiliary graph skeleton construction time"),
		reweights:    r.Counter("auxgraph_reweights_total", "in-place skeleton reweights"),
		reweightTime: r.Timer("auxgraph_reweight_seconds", "in-place skeleton reweight time"),
		vertices:     r.Histogram("auxgraph_vertices", "vertex count per auxiliary graph"),
		edges:        r.Histogram("auxgraph_edges", "edge count per auxiliary graph"),
	}
}
