package graph

// View is a read-only adjacency view of a Graph restricted to a set of
// edge types. Views are cheap values — a pointer and a copy-on-write
// TypeSet — so deriving one per query or per shard costs nothing and
// never copies graph storage.
//
// The sharded runtime uses Views in two roles: a filtered replica's
// engine exposes its content as the View (graph, filter) for stats and
// inspection, and the differential tests build the oracle for a
// filtered replica as the View of the serial engine's full graph under
// the same TypeSet — "the graph restricted to the shard's footprint" is
// exactly what a correct replica must equal.
//
// A View observes live mutations of the underlying graph; it is a
// filter, not a snapshot.
type View struct {
	g   *Graph
	set TypeSet
}

// ViewTypes returns the read-only view of g restricted to the given
// edge types.
func (g *Graph) ViewTypes(set TypeSet) View { return View{g: g, set: set} }

// Graph returns the underlying graph.
func (v View) Graph() *Graph { return v.g }

// Types returns the view's edge-type filter.
func (v View) Types() TypeSet { return v.set }

// NumEdges reports the number of live edges whose type passes the
// filter. It is O(distinct types) via the graph's per-type counters,
// never a scan.
func (v View) NumEdges() int {
	if v.set.Universal() {
		return v.g.NumEdges()
	}
	n := 0
	for t := 0; t < v.g.types.Len(); t++ {
		if v.set.Has(TypeID(t)) {
			n += v.g.EdgesOfType(TypeID(t))
		}
	}
	return n
}

// Edge returns the edge with the given ID if it is live and its type
// passes the filter.
func (v View) Edge(id EdgeID) (Edge, bool) {
	e, ok := v.g.Edge(id)
	if !ok || !v.set.Has(e.Type) {
		return Edge{}, false
	}
	return e, true
}

// EachOut invokes fn for every outgoing edge at u whose type passes the
// filter. Returning false stops the iteration early. fn must not change
// the graph (see Graph.EachOut).
func (v View) EachOut(u VertexID, fn func(Half) bool) {
	v.g.EachOut(u, func(h Half) bool {
		if !v.set.Has(h.Type) {
			return true
		}
		return fn(h)
	})
}

// EachIn invokes fn for every incoming edge at u whose type passes the
// filter. Returning false stops the iteration early. fn must not change
// the graph (see Graph.EachOut).
func (v View) EachIn(u VertexID, fn func(Half) bool) {
	v.g.EachIn(u, func(h Half) bool {
		if !v.set.Has(h.Type) {
			return true
		}
		return fn(h)
	})
}

// EachEdge invokes fn for every live edge whose type passes the filter
// (arena order). Returning false stops the iteration early.
func (v View) EachEdge(fn func(Edge) bool) {
	v.g.EachEdge(func(e Edge) bool {
		if !v.set.Has(e.Type) {
			return true
		}
		return fn(e)
	})
}
