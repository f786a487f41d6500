package selectivity

import (
	"testing"

	"streamgraph/internal/query"
)

func skewedCollector() *Collector {
	c := NewCollector()
	ts := int64(0)
	// 50 "common" edges chained, 5 "mid", 1 "rare".
	for i := 0; i < 50; i++ {
		ts++
		c.Add(edge(vname(i%8), vname((i+1)%8), "common", ts))
	}
	for i := 0; i < 5; i++ {
		ts++
		c.Add(edge(vname(i%8), vname((i+3)%8), "mid", ts))
	}
	ts++
	c.Add(edge(vname(0), vname(5), "rare", ts))
	return c
}

func TestLeafFrequency(t *testing.T) {
	c := skewedCollector()
	q := query.NewPath(query.Wildcard, "common", "rare")
	f, err := c.LeafFrequency(q, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if f != 50 {
		t.Fatalf("freq(common) = %v, want 50", f)
	}
	f, err = c.LeafFrequency(q, []int{1})
	if err != nil || f != 1 {
		t.Fatalf("freq(rare) = %v err=%v, want 1", f, err)
	}
}

func TestSpaceEstimateOrdering(t *testing.T) {
	// Theorem 2 analytically: ascending-selectivity leaf order needs
	// less estimated space than descending for the same query.
	c := skewedCollector()
	q := query.NewPath(query.Wildcard, "rare", "mid", "common")
	asc := [][]int{{0}, {1}, {2}}  // rare, mid, common
	desc := [][]int{{2}, {1}, {0}} // common, mid, rare
	sAsc, err := c.SpaceEstimate(q, asc)
	if err != nil {
		t.Fatal(err)
	}
	sDesc, err := c.SpaceEstimate(q, desc)
	if err != nil {
		t.Fatal(err)
	}
	if sAsc >= sDesc {
		t.Fatalf("ascending space %v >= descending %v", sAsc, sDesc)
	}
	if s, _ := c.SpaceEstimate(q, nil); s != 0 {
		t.Errorf("empty decomposition space = %v", s)
	}
}

func TestCostEstimate(t *testing.T) {
	c := skewedCollector()
	q := query.NewPath(query.Wildcard, "rare", "common")
	single, err := c.CostEstimate(q, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if single <= 0 {
		t.Fatalf("cost = %v", single)
	}
	// A 2-edge path leaf costs d̄ per edge instead of 1+1 plus joins;
	// both must be positive and finite.
	path, err := c.CostEstimate(q, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if path <= 0 {
		t.Fatalf("path cost = %v", path)
	}
	// Single-leaf decomposition cost excludes join terms.
	oneLeaf, err := c.CostEstimate(query.NewPath(query.Wildcard, "rare"), [][]int{{0}})
	if err != nil || oneLeaf != 1 {
		t.Fatalf("1-edge leaf cost = %v err=%v, want 1", oneLeaf, err)
	}
}

func TestShouldDecomposeFurther(t *testing.T) {
	c := skewedCollector()
	// A subgraph occurring vastly more often than the whole pattern is
	// worth decomposing; equal frequencies are not.
	if !c.ShouldDecomposeFurther(1e6, 1, 3) {
		t.Errorf("high-frequency sub should trigger decomposition")
	}
	if c.ShouldDecomposeFurther(1, 1, 3) {
		t.Errorf("equal frequency should not trigger decomposition")
	}
}

// TestLeafFrequencyWildcard: a wildcard edge type names every type, so
// it estimates as the whole histogram, not as an unseen type's 0 — a
// 1-edge leaf as EdgeTotal, a 2-edge path as the sum of the shapes the
// wildcard end can take (each unordered pair of incident edges once).
func TestLeafFrequencyWildcard(t *testing.T) {
	c := NewCollector()
	// hub has two x out, one y out, one y in.
	c.Add(edge("hub", "a", "x", 1))
	c.Add(edge("hub", "b", "x", 2))
	c.Add(edge("hub", "c", "y", 3))
	c.Add(edge("d", "hub", "y", 4))
	freq := func(q *query.Graph, leaf ...int) float64 {
		t.Helper()
		f, err := c.LeafFrequency(q, leaf)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	any1 := query.NewPath(query.Wildcard, query.Wildcard)
	if got := freq(any1, 0); got != 4 {
		t.Errorf("wildcard 1-edge leaf = %v, want EdgeTotal 4", got)
	}
	// u <-x- v -*-> w: out-x with any other out edge at the centre:
	// x-x 1 pair, x-y 2 pairs.
	fork := &query.Graph{
		Vertices: []query.Vertex{{Name: "u"}, {Name: "v"}, {Name: "w"}},
		Edges:    []query.Edge{{Src: 1, Dst: 0, Type: "x"}, {Src: 1, Dst: 2, Type: query.Wildcard}},
	}
	if got := freq(fork, 0, 1); got != 3 {
		t.Errorf("x-out with wildcard-out at one centre = %v, want 3", got)
	}
	// Both ends wild, both out: every unordered pair of out edges, C(3,2).
	fork.Edges[0].Type = query.Wildcard
	if got := freq(fork, 0, 1); got != 3 {
		t.Errorf("two wildcard out edges at one centre = %v, want 3", got)
	}
	// u -*-> v -*-> w: an in edge then an out edge at the centre: 1 in x 3 out.
	if got := freq(query.NewPath(query.Wildcard, query.Wildcard, query.Wildcard), 0, 1); got != 3 {
		t.Errorf("wildcard 2-hop path = %v, want 3", got)
	}
	if s, err := c.SpaceEstimate(any1, [][]int{{0}}); err != nil || s != 4 {
		t.Errorf("SpaceEstimate of a wildcard edge = %v err=%v, want 4", s, err)
	}
	if got := freq(query.NewPath(query.Wildcard, "unseen"), 0); got != 0 {
		t.Errorf("unseen type = %v, want 0", got)
	}
}
