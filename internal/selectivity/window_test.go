package selectivity

import (
	"math"
	"reflect"
	"testing"

	"streamgraph/internal/graph"
	"streamgraph/internal/stream"
)

// TestFromGraphIsTheWindow: the graph feed counts exactly the edges at
// or above the cutoff that pass the view's filter — self loops, parallel
// edges and edges the graph has not swept yet included or excluded as
// the definition says — and builds the collector AddSince builds from
// the same edges, per-vertex counters included, so that continuing
// either with Add and Remove keeps them equal.
func TestFromGraphIsTheWindow(t *testing.T) {
	edges := []stream.Edge{
		edge("a", "b", "x", 1), // below every cutoff used: held by the graph, not in the window
		edge("a", "a", "x", 5), // self loop
		edge("a", "b", "x", 6),
		edge("a", "b", "x", 6), // parallel
		edge("b", "c", "y", 7),
		edge("c", "a", "z", 8),
		edge("c", "b", "y", 4), // timestamp regressing inside the window
	}
	g := graph.New()
	for _, e := range edges {
		g.AddEdgeNamed(e.Src, "ip", e.Dst, "ip", e.Type, e.TS)
	}
	x, y := graph.TypeID(g.Types().Intern("x")), graph.TypeID(g.Types().Intern("y"))
	for _, tc := range []struct {
		name  string
		minTS int64
		set   graph.TypeSet
	}{
		{"unbounded", math.MinInt64, graph.UniversalTypes()},
		{"cutoff", 4, graph.UniversalTypes()},
		{"cutoff and filter", 5, graph.NewTypeSet(x, y)},
	} {
		var kept []stream.Edge
		for _, e := range edges {
			if id, _ := g.Types().Lookup(e.Type); tc.set.Has(graph.TypeID(id)) {
				kept = append(kept, e)
			}
		}
		fromLog := NewCollector()
		fromLog.AddSince(kept, tc.minTS)
		fromGraph := FromGraph(g.ViewTypes(tc.set), tc.minTS)
		if !reflect.DeepEqual(fromGraph.state(), fromLog.state()) {
			t.Fatalf("%s: graph feed %+v, log feed %+v", tc.name, fromGraph.state(), fromLog.state())
		}
		if fromGraph.AvgDegreeEstimate() != fromLog.AvgDegreeEstimate() {
			t.Errorf("%s: average degree %v from the graph, %v from the log", tc.name, fromGraph.AvgDegreeEstimate(), fromLog.AvgDegreeEstimate())
		}
		for _, c := range []*Collector{fromGraph, fromLog} {
			c.Add(edge("b", "d", "w", 9))
			c.Remove(edges[2])
		}
		if !reflect.DeepEqual(fromGraph.state(), fromLog.state()) {
			t.Fatalf("%s: the two collectors diverge once continued", tc.name)
		}
	}
	if got := WindowCutoff(100, 10); got != 91 {
		t.Errorf("WindowCutoff(100, 10) = %d, want 91", got)
	}
	if got := WindowCutoff(100, 0); got != math.MinInt64 {
		t.Errorf("WindowCutoff with no window = %d, want unbounded", got)
	}
}
