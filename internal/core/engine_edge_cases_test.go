package core

import (
	"fmt"
	"testing"

	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// TestCyclicQueryAllStrategies exercises the infiltration-style cyclic
// query the paper highlights as unsupported by DAG-based decompositions
// (Section 2.2): a directed triangle.
func TestCyclicQueryAllStrategies(t *testing.T) {
	q := &query.Graph{
		Vertices: []query.Vertex{{Name: "a", Label: "*"}, {Name: "b", Label: "*"}, {Name: "c", Label: "*"}},
		Edges: []query.Edge{
			{Src: 0, Dst: 1, Type: "rdp"},
			{Src: 1, Dst: 2, Type: "rdp"},
			{Src: 2, Dst: 0, Type: "ssh"},
		},
	}
	edges := []stream.Edge{
		edge("h1", "h2", "rdp", 1),
		edge("h2", "h3", "rdp", 2),
		edge("h3", "h1", "ssh", 3),
		// Distractors: an open path and a wrong-direction closer.
		edge("h4", "h5", "rdp", 4),
		edge("h5", "h6", "rdp", 5),
		edge("h6", "h7", "ssh", 6),
		edge("h1", "h3", "ssh", 7), // wrong direction for the cycle
	}
	stats := collect(edges)
	var want []string
	for i, s := range allStrategies() {
		got := runStrategy(t, q, edges, s, 0, stats)
		if len(got) != 1 {
			t.Fatalf("%v: cyclic query found %d matches, want 1: %v", s, len(got), got)
		}
		if i == 0 {
			want = got
		} else if !equalStrings(got, want) {
			t.Fatalf("%v disagrees on cyclic query", s)
		}
	}
}

// TestParallelEdgeQueryAllStrategies is the Figure 1c shape: two query
// edges between the same pair of vertices with different types.
func TestParallelEdgeQueryAllStrategies(t *testing.T) {
	q := &query.Graph{
		Vertices: []query.Vertex{{Name: "victim", Label: "*"}, {Name: "c2", Label: "*"}},
		Edges: []query.Edge{
			{Src: 0, Dst: 1, Type: "tcp"},
			{Src: 0, Dst: 1, Type: "large"},
		},
	}
	edges := []stream.Edge{
		edge("v1", "cc", "tcp", 1),
		edge("v1", "cc", "large", 2),
		edge("v2", "cc", "tcp", 3), // no matching large edge
	}
	stats := collect(edges)
	for _, s := range allStrategies() {
		got := runStrategy(t, q, edges, s, 0, stats)
		if len(got) != 1 {
			t.Fatalf("%v: parallel-edge query found %d matches, want 1", s, len(got))
		}
	}
}

// TestDoSPatternAllStrategies is the Figure 1b denial-of-service shape:
// multiple sources converging on one victim.
func TestDoSPatternAllStrategies(t *testing.T) {
	q := &query.Graph{
		Vertices: []query.Vertex{
			{Name: "b1", Label: "*"}, {Name: "b2", Label: "*"},
			{Name: "b3", Label: "*"}, {Name: "victim", Label: "*"},
		},
		Edges: []query.Edge{
			{Src: 0, Dst: 3, Type: "syn"},
			{Src: 1, Dst: 3, Type: "syn"},
			{Src: 2, Dst: 3, Type: "syn"},
		},
	}
	edges := []stream.Edge{
		edge("x1", "target", "syn", 1),
		edge("x2", "target", "syn", 2),
		edge("x3", "target", "syn", 3),
		edge("x4", "other", "syn", 4),
	}
	stats := collect(edges)
	// 3 distinct bots map to 3 query vertices in 3! = 6 ways.
	for _, s := range allStrategies() {
		got := runStrategy(t, q, edges, s, 0, stats)
		if len(got) != 6 {
			t.Fatalf("%v: DoS pattern found %d matches, want 6", s, len(got))
		}
	}
}

// TestDuplicateStreamEdges: identical (src,dst,type) edges at different
// timestamps are parallel data edges; each completes its own match.
func TestDuplicateStreamEdges(t *testing.T) {
	q := query.NewPath(query.Wildcard, "a", "b")
	edges := []stream.Edge{
		edge("x", "y", "a", 1),
		edge("x", "y", "a", 2), // parallel duplicate
		edge("y", "z", "b", 3),
	}
	stats := collect(edges)
	for _, s := range allStrategies() {
		got := runStrategy(t, q, edges, s, 0, stats)
		if len(got) != 2 {
			t.Fatalf("%v: got %d matches, want 2 (one per parallel a-edge)", s, len(got))
		}
	}
}

// TestOutOfOrderTimestamps: arrival order differs from timestamp order;
// all strategies must agree (the window uses timestamps, eviction
// tolerates the disorder).
func TestOutOfOrderTimestamps(t *testing.T) {
	q := query.NewPath(query.Wildcard, "a", "b")
	edges := []stream.Edge{
		edge("x", "y", "a", 100),
		edge("y", "z", "b", 50), // older timestamp arrives later
		edge("p", "q", "a", 200),
		edge("q", "r", "b", 260),
	}
	stats := collect(edges)
	for _, s := range allStrategies() {
		// Window 80: span(x-y-z)=50 fits; span(p-q-r)=60 fits.
		got := runStrategy(t, q, edges, s, 80, stats)
		if len(got) != 2 {
			t.Fatalf("%v: out-of-order got %d matches, want 2 (%v)", s, len(got), got)
		}
		// Window 55: only the 50-span match survives.
		got = runStrategy(t, q, edges, s, 55, stats)
		if len(got) != 1 {
			t.Fatalf("%v: window 55 got %d matches, want 1", s, len(got))
		}
	}
}

// TestSingleEdgeQuery: the degenerate 1-edge pattern works under every
// strategy (the SJ-Tree root is the only leaf).
func TestSingleEdgeQuery(t *testing.T) {
	q := query.NewPath(query.Wildcard, "rare")
	edges := []stream.Edge{
		edge("a", "b", "common", 1),
		edge("b", "c", "rare", 2),
		edge("c", "d", "common", 3),
	}
	stats := collect(edges)
	for _, s := range allStrategies() {
		got := runStrategy(t, q, edges, s, 0, stats)
		if len(got) != 1 {
			t.Fatalf("%v: got %d matches, want 1", s, len(got))
		}
	}
}

// TestLabeledQueryAllStrategies: label constraints restrict matches
// identically under every strategy.
func TestLabeledQueryAllStrategies(t *testing.T) {
	q := &query.Graph{
		Vertices: []query.Vertex{
			{Name: "u", Label: "user"},
			{Name: "p", Label: "post"},
		},
		Edges: []query.Edge{{Src: 0, Dst: 1, Type: "likes"}},
	}
	edges := []stream.Edge{
		{Src: "alice", SrcLabel: "user", Dst: "post1", DstLabel: "post", Type: "likes", TS: 1},
		{Src: "bot7", SrcLabel: "bot", Dst: "post2", DstLabel: "post", Type: "likes", TS: 2},
		{Src: "bob", SrcLabel: "user", Dst: "page9", DstLabel: "page", Type: "likes", TS: 3},
	}
	stats := collect(edges)
	for _, s := range allStrategies() {
		got := runStrategy(t, q, edges, s, 0, stats)
		if len(got) != 1 {
			t.Fatalf("%v: labeled query got %d matches, want 1", s, len(got))
		}
	}
}

// TestRepeatedWindowsReuse: a long stream of repeating patterns with a
// tight window — matches keep being found after many evictions, and
// memory (stored partials) stays bounded.
func TestRepeatedWindowsReuse(t *testing.T) {
	q := query.NewPath(query.Wildcard, "a", "b")
	var edges []stream.Edge
	for i := 0; i < 300; i++ {
		ts := int64(i * 10)
		edges = append(edges,
			edge(fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i), "a", ts),
			edge(fmt.Sprintf("y%d", i), fmt.Sprintf("z%d", i), "b", ts+1),
		)
	}
	stats := collect(edges[:40])
	for _, s := range []Strategy{StrategySingle, StrategySingleLazy, StrategyPathLazy} {
		eng, err := New(q, Config{Strategy: s, Window: 50, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		matches := 0
		for _, se := range edges {
			matches += len(eng.ProcessEdge(se))
		}
		if matches != 300 {
			t.Fatalf("%v: got %d matches, want 300", s, matches)
		}
		if stored := eng.Stats().Tree.Stored; stored > 100 {
			t.Fatalf("%v: %d partials retained with a 50-tick window", s, stored)
		}
	}
}

// TestEmptyTypeNeverSeen: a query whose type never appears is cheap and
// silent under every strategy.
func TestEmptyTypeNeverSeen(t *testing.T) {
	q := query.NewPath(query.Wildcard, "ghost", "phantom")
	edges := []stream.Edge{edge("a", "b", "real", 1), edge("b", "c", "real", 2)}
	for _, s := range []Strategy{StrategyVF2, StrategyIncIso} {
		got := runStrategy(t, q, edges, s, 0, nil)
		if len(got) != 0 {
			t.Fatalf("%v: ghost query matched", s)
		}
	}
	// Decomposition strategies need stats but work with zero-selectivity
	// types too.
	stats := collect(edges)
	for _, s := range []Strategy{StrategySingle, StrategySingleLazy, StrategyPath, StrategyPathLazy} {
		got := runStrategy(t, q, edges, s, 0, stats)
		if len(got) != 0 {
			t.Fatalf("%v: ghost query matched", s)
		}
	}
}
