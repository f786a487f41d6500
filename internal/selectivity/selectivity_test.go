package selectivity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamgraph/internal/graph"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

func edge(src, dst, etype string, ts int64) stream.Edge {
	return stream.Edge{Src: src, SrcLabel: "ip", Dst: dst, DstLabel: "ip", Type: etype, TS: ts}
}

func TestCounter(t *testing.T) {
	c := make(Counter[string])
	c.Update("a", 2)
	c.Update("a", 3)
	c.Update("b", 1)
	if c.Count("a") != 5 || c.Count("b") != 1 || c.Count("missing") != 0 {
		t.Fatalf("counter reads wrong: %v", c)
	}
	if c.Total() != 6 {
		t.Fatalf("Total = %d, want 6", c.Total())
	}
}

func TestEdgeSelectivity(t *testing.T) {
	c := NewCollector()
	c.Add(edge("a", "b", "tcp", 1))
	c.Add(edge("a", "c", "tcp", 2))
	c.Add(edge("b", "c", "udp", 3))
	c.Add(edge("c", "d", "icmp", 4))
	if got := c.EdgeSelectivity("tcp"); got != 0.5 {
		t.Errorf("S(tcp) = %v, want 0.5", got)
	}
	if got := c.EdgeSelectivity("udp"); got != 0.25 {
		t.Errorf("S(udp) = %v, want 0.25", got)
	}
	if got := c.EdgeSelectivity("never"); got != 0 {
		t.Errorf("S(never) = %v, want 0", got)
	}
	if c.EdgeFrequency("tcp") != 2 {
		t.Errorf("freq(tcp) = %d, want 2", c.EdgeFrequency("tcp"))
	}
}

func TestPathCountsHandExample(t *testing.T) {
	// Star at vertex b: 2 outgoing tcp (b->x, b->y) and 1 incoming udp
	// (a->b). Expected 2-paths centered at b:
	//   tcp(out)-tcp(out): C(2,2) = 1
	//   tcp(out)-udp(in):  2*1    = 2
	// No other center has 2 incident edges.
	c := NewCollector()
	c.Add(edge("b", "x", "tcp", 1))
	c.Add(edge("b", "y", "tcp", 2))
	c.Add(edge("a", "b", "udp", 3))
	if got := c.PathFrequency("tcp", Out, "tcp", Out); got != 1 {
		t.Errorf("tcp(out)-tcp(out) = %d, want 1", got)
	}
	if got := c.PathFrequency("tcp", Out, "udp", In); got != 2 {
		t.Errorf("tcp(out)-udp(in) = %d, want 2", got)
	}
	if got := c.PathFrequency("udp", In, "tcp", Out); got != 2 {
		t.Errorf("key must be symmetric: udp(in)-tcp(out) = %d, want 2", got)
	}
	if c.PathTotal() != 3 {
		t.Errorf("PathTotal = %d, want 3", c.PathTotal())
	}
	if got := c.PathSelectivity("tcp", Out, "tcp", Out); got != 1.0/3 {
		t.Errorf("path selectivity = %v, want 1/3", got)
	}
	if c.UniquePathShapes() != 2 {
		t.Errorf("UniquePathShapes = %d, want 2", c.UniquePathShapes())
	}
}

func TestDirectionDistinguished(t *testing.T) {
	// a->b<-c and a->b->c differ: both tcp, centered at b, but the
	// first is (in,in) and the second (in,out).
	c1 := NewCollector()
	c1.Add(edge("a", "b", "tcp", 1))
	c1.Add(edge("c", "b", "tcp", 2))
	if c1.PathFrequency("tcp", In, "tcp", In) != 1 {
		t.Errorf("converging pair not counted as (in,in)")
	}
	if c1.PathFrequency("tcp", In, "tcp", Out) != 0 {
		t.Errorf("converging pair wrongly counted as (in,out)")
	}

	c2 := NewCollector()
	c2.Add(edge("a", "b", "tcp", 1))
	c2.Add(edge("b", "c", "tcp", 2))
	if c2.PathFrequency("tcp", In, "tcp", Out) != 1 {
		t.Errorf("chain pair not counted as (in,out)")
	}
}

// brute-force 2-edge path count over a stream: for every unordered pair
// of distinct edges sharing a vertex, count once per shared endpoint.
func brutePathTotal(edges []stream.Edge) int64 {
	var total int64
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			a, b := edges[i], edges[j]
			for _, v := range []string{a.Src, a.Dst} {
				// Count each shared endpoint occurrence: parallel edges
				// share both endpoints and center at both.
				n := 0
				if v == b.Src {
					n++
				}
				if v == b.Dst {
					n++
				}
				if a.Src == a.Dst {
					// Self loops not generated in these tests.
					continue
				}
				total += int64(n)
			}
		}
	}
	return total
}

func TestIncrementalMatchesBatchAlgorithm5(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	types := []string{"t1", "t2", "t3", "t4"}
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(6)
		var edges []stream.Edge
		g := graph.New()
		c := NewCollector()
		for i := 0; i < 30; i++ {
			s, d := rng.Intn(n), rng.Intn(n)
			if s == d {
				continue
			}
			e := edge(vname(s), vname(d), types[rng.Intn(len(types))], int64(i))
			edges = append(edges, e)
			c.Add(e)
			g.AddEdgeNamed(e.Src, "ip", e.Dst, "ip", e.Type, e.TS)
		}
		batch := FromGraph(g.ViewTypes(graph.UniversalTypes()), math.MinInt64)
		if batch.UniquePathShapes() != c.UniquePathShapes() {
			t.Fatalf("trial %d: unique shapes: batch %d vs incremental %d", trial, batch.UniquePathShapes(), c.UniquePathShapes())
		}
		if batch.PathTotal() != c.PathTotal() || batch.EdgeTotal() != c.EdgeTotal() {
			t.Fatalf("trial %d: totals: batch (%d, %d) vs incremental (%d, %d)", trial,
				batch.EdgeTotal(), batch.PathTotal(), c.EdgeTotal(), c.PathTotal())
		}
		if want := brutePathTotal(edges); batch.PathTotal() != want {
			t.Fatalf("trial %d: batch total %d vs brute force %d", trial, batch.PathTotal(), want)
		}
		// Every shape count of the batch collector, whose keys are over
		// the graph's interner.
		batch.eachPath(func(k PathKey, v int64) {
			ta, da := splitDirType(k.A)
			tb, db := splitDirType(k.B)
			got := c.PathFrequency(g.Types().Name(ta), da, g.Types().Name(tb), db)
			if got != v {
				t.Fatalf("trial %d: shape %v: batch %d vs incremental %d", trial, k, v, got)
			}
		})
	}
}

func vname(i int) string { return string(rune('A' + i)) }

func TestAddRemoveInverse(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		types := []string{"x", "y", "z"}
		c := NewCollector()
		var edges []stream.Edge
		for i := 0; i < 25; i++ {
			s, d := rng.Intn(6), rng.Intn(6)
			if s == d {
				continue
			}
			e := edge(vname(s), vname(d), types[rng.Intn(3)], int64(i))
			edges = append(edges, e)
			c.Add(e)
		}
		// Remove in random order; everything must return to zero.
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, e := range edges {
			c.Remove(e)
		}
		if c.EdgeTotal() != 0 || c.PathTotal() != 0 {
			return false
		}
		for _, v := range c.edgeCount {
			if v != 0 {
				return false
			}
		}
		return c.UniquePathShapes() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramsSorted(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 5; i++ {
		c.Add(edge("a", vname(i), "tcp", int64(i)))
	}
	c.Add(edge("a", "z", "udp", 99))
	h := c.EdgeHistogram()
	if len(h) != 2 || h[0].Key != "tcp" || h[0].Count != 5 || h[1].Key != "udp" {
		t.Fatalf("EdgeHistogram = %v", h)
	}
	ph := c.PathHistogram()
	if len(ph) == 0 {
		t.Fatalf("PathHistogram empty")
	}
	for i := 1; i < len(ph); i++ {
		if ph[i].Count > ph[i-1].Count {
			t.Fatalf("PathHistogram not sorted desc: %v", ph)
		}
	}
}

func TestLeafSelectivity(t *testing.T) {
	c := NewCollector()
	// b: tcp out x2, udp in x1 → tcp-tcp: 1, tcp-udp: 2, total 3.
	c.Add(edge("b", "x", "tcp", 1))
	c.Add(edge("b", "y", "tcp", 2))
	c.Add(edge("a", "b", "udp", 3))

	// Query: u -udp-> v -tcp-> w   (center v: udp in, tcp out)
	q := query.NewPath(query.Wildcard, "udp", "tcp")

	s1, err := c.LeafSelectivity(q, []int{0})
	if err != nil || s1 != 1.0/3 {
		t.Fatalf("1-edge leaf = %v err=%v, want 1/3", s1, err)
	}
	s2, err := c.LeafSelectivity(q, []int{0, 1})
	if err != nil || s2 != 2.0/3 {
		t.Fatalf("2-edge leaf = %v err=%v, want 2/3", s2, err)
	}
	if _, err := c.LeafSelectivity(q, []int{0, 1, 1}); err == nil {
		t.Fatalf("3-edge leaf should error")
	}
	if !c.LeafSeen(q, []int{0, 1}) {
		t.Errorf("LeafSeen should be true")
	}
}

func TestExpectedAndRelativeSelectivity(t *testing.T) {
	c := NewCollector()
	c.Add(edge("b", "x", "tcp", 1))
	c.Add(edge("b", "y", "tcp", 2))
	c.Add(edge("a", "b", "udp", 3))

	q := query.NewPath(query.Wildcard, "udp", "tcp")
	single := [][]int{{0}, {1}}
	path := [][]int{{0, 1}}

	s1, err := c.ExpectedSelectivity(q, single)
	if err != nil {
		t.Fatal(err)
	}
	// S(udp)=1/3, S(tcp)=2/3 → product 2/9.
	if math.Abs(s1-2.0/9) > 1e-12 {
		t.Fatalf("Ŝ(T1) = %v, want 2/9", s1)
	}
	sp, err := c.ExpectedSelectivity(q, path)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp-2.0/3) > 1e-12 {
		t.Fatalf("Ŝ(Tp) = %v, want 2/3", sp)
	}
	xi, ok, err := c.RelativeSelectivity(q, path, single)
	if err != nil || !ok {
		t.Fatalf("RelativeSelectivity err=%v ok=%v", err, ok)
	}
	if math.Abs(xi-3.0) > 1e-12 {
		t.Fatalf("ξ = %v, want 3", xi)
	}
	if PreferPathDecomposition(xi) {
		t.Errorf("ξ=3 should prefer single")
	}
	if !PreferPathDecomposition(1e-5) {
		t.Errorf("ξ=1e-5 should prefer path")
	}
}

func TestRelativeSelectivityZeroDenominator(t *testing.T) {
	c := NewCollector()
	q := query.NewPath(query.Wildcard, "nope")
	_, ok, err := c.RelativeSelectivity(q, [][]int{{0}}, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("zero denominator must report ok=false")
	}
}

func TestRemoveUnknownTypeIsNoop(t *testing.T) {
	c := NewCollector()
	c.Remove(edge("a", "b", "ghost", 1))
	if c.EdgeTotal() != 0 {
		t.Fatalf("Remove of unseen type changed totals")
	}
}
