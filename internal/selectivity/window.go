package selectivity

import (
	"math"

	"streamgraph/internal/graph"
	"streamgraph/internal/stream"
)

// Window statistics. A runtime that registers a query mid-stream keeps
// no collector fed on every edge; it builds one when the registration
// asks, from the window: the edges it holds with
//
//	ts >= lastTS - window + 1        (all of them when window == 0)
//
// where lastTS is the largest timestamp the stream has carried. The
// cutoff is part of the definition: a graph holds expired edges until
// its next sweep and a log until its next trim, and neither slack may
// change a decomposition. Two feeds build equal collectors from equal
// windows, each in O(edges held): FromGraph and AddSince.

// WindowCutoff is the smallest timestamp inside the window that ends at
// lastTS; window <= 0 means unbounded.
func WindowCutoff(lastTS, window int64) int64 {
	if window <= 0 {
		return math.MinInt64
	}
	return lastTS - window + 1
}

// FromGraph builds the collector of the edges of v with ts >= minTS by
// the batch form of Algorithm 5: one pass over the vertices, counting
// each one's incident edges per direction-type, then
// pathCount[a,b] += n_a*n_b for every pair of distinct direction-types
// at the vertex and n_a*(n_a-1)/2 on the diagonal — the totals Add
// reaches edge by edge. Per-vertex counters are filled in too, so Add
// and Remove may continue the result.
func FromGraph(v graph.View, minTS int64) *Collector {
	g := v.Graph()
	c := NewCollector()
	// Intern the graph's types in its own order: TypeIDs then coincide
	// and an adjacency entry's type indexes the histograms directly.
	for _, name := range g.Types().Names() {
		c.typeID(name)
	}
	var cv []incident
	dir := Out
	count := func(h graph.Half) bool {
		if h.TS < minTS {
			return true
		}
		dt := dirType(uint32(h.Type), dir)
		for i := range cv {
			if cv[i].dt == dt {
				cv[i].n++
				return true
			}
		}
		cv = append(cv, incident{dt: dt, n: 1})
		return true
	}
	g.EachVertex(func(u graph.VertexID) bool {
		cv = cv[:0]
		dir = Out
		v.EachOut(u, count)
		dir = In
		v.EachIn(u, count)
		if len(cv) == 0 {
			return true
		}
		for i, a := range cv {
			if t, dir := splitDirType(a.dt); dir == Out {
				c.edgeCount[t] += a.n
				c.edgeTotal += a.n
			}
			same := a.n * (a.n - 1) / 2
			c.pathCount[pathIndex(a.dt, a.dt)] += same
			c.pathTotal += same
			for _, b := range cv[i+1:] {
				c.pathCount[pathIndex(a.dt, b.dt)] += a.n * b.n
				c.pathTotal += a.n * b.n
			}
		}
		c.perVertex[c.vertex(g.VertexName(u))] = append([]incident(nil), cv...)
		return true
	})
	return c
}

// AddSince folds in the edges of one logged batch that have
// ts >= minTS: the log-side feed of window statistics.
func (c *Collector) AddSince(edges []stream.Edge, minTS int64) {
	for i := range edges {
		if edges[i].TS >= minTS {
			c.add(&edges[i])
		}
	}
}
