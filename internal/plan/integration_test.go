package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/datagen"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

// matchSet canonicalizes a match list for cross-strategy comparison.
func matchSet(eng *core.Engine, ms []iso.Match) map[string]bool {
	out := make(map[string]bool)
	for _, m := range ms {
		g := eng.Graph()
		sig := ""
		for qe, de := range m.EdgeOf {
			e, ok := g.Edge(de)
			if !ok {
				continue
			}
			sig += fmt.Sprintf("%d:%s>%s@%d;", qe, g.VertexName(e.Src), g.VertexName(e.Dst), e.TS)
		}
		out[sig] = true
	}
	return out
}

func runWithLeaves(t *testing.T, q *query.Graph, leaves [][]int, c *selectivity.Collector, edges []stream.Edge, strategy core.Strategy) map[string]bool {
	t.Helper()
	cfg := core.Config{Strategy: strategy, Stats: c}
	if leaves != nil {
		cfg.Leaves = leaves
	}
	eng, err := core.New(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := make(map[string]bool)
	for _, e := range edges {
		for sig := range matchSet(eng, eng.ProcessEdge(e)) {
			all[sig] = true
		}
	}
	return all
}

func TestOptimalLeavesMatchReferenceStrategy(t *testing.T) {
	edges := datagen.Netflow(datagen.NetflowConfig{Edges: 4000, Hosts: 120, Seed: 31})
	c := selectivity.NewCollector()
	c.AddAll(edges)
	p := &Planner{Stats: c, AvgDegree: 6}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		q := datagen.RandomPathQuery(rng, datagen.NetflowProtocols, 3, "ip")
		leaves, _, err := p.Optimal(q)
		if err != nil {
			t.Fatal(err)
		}
		want := runWithLeaves(t, q, nil, c, edges, core.StrategySingle)
		got := runWithLeaves(t, q, leaves, c, edges, core.StrategySingleLazy)
		if len(want) != len(got) {
			t.Fatalf("query %d (%v): planner leaves found %d matches, reference %d",
				i, leaves, len(got), len(want))
		}
		for sig := range want {
			if !got[sig] {
				t.Fatalf("query %d: match %q missing under planner leaves", i, sig)
			}
		}
	}
}

// triangleStream builds a deterministic stream containing numTriangles
// directed A->B->C->A triangles plus background noise edges.
func triangleStream(numTriangles, noise int) []stream.Edge {
	var out []stream.Edge
	ts := int64(0)
	for i := 0; i < numTriangles; i++ {
		a, b, c := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i)
		ts++
		out = append(out, stream.Edge{Src: a, SrcLabel: "ip", Dst: b, DstLabel: "ip", Type: "TCP", TS: ts})
		ts++
		out = append(out, stream.Edge{Src: b, SrcLabel: "ip", Dst: c, DstLabel: "ip", Type: "UDP", TS: ts})
		ts++
		out = append(out, stream.Edge{Src: c, SrcLabel: "ip", Dst: a, DstLabel: "ip", Type: "ICMP", TS: ts})
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < noise; i++ {
		ts++
		out = append(out, stream.Edge{
			Src: fmt.Sprintf("n%d", rng.Intn(50)), SrcLabel: "ip",
			Dst: fmt.Sprintf("n%d", rng.Intn(50)), DstLabel: "ip",
			Type: "TCP", TS: ts,
		})
	}
	return out
}

func triangleQuery() *query.Graph {
	q := &query.Graph{}
	a := q.AddVertex("a", "ip")
	b := q.AddVertex("b", "ip")
	c := q.AddVertex("c", "ip")
	q.AddEdge(a, b, "TCP")
	q.AddEdge(b, c, "UDP")
	q.AddEdge(c, a, "ICMP")
	return q
}

func TestTriangleLeafEndToEnd(t *testing.T) {
	edges := triangleStream(7, 200)
	c := selectivity.NewCollector()
	c.AddAll(edges)
	q := triangleQuery()

	// Reference: single-edge decomposition.
	want := runWithLeaves(t, q, nil, c, edges, core.StrategySingle)
	if len(want) != 7 {
		t.Fatalf("reference found %d triangle matches, want 7", len(want))
	}

	// A single 3-edge triangle leaf: the whole query matched atomically.
	got := runWithLeaves(t, q, [][]int{{0, 1, 2}}, c, edges, core.StrategySingle)
	if len(got) != len(want) {
		t.Fatalf("triangle leaf found %d matches, want %d", len(got), len(want))
	}
	for sig := range want {
		if !got[sig] {
			t.Fatalf("triangle leaf missing match %q", sig)
		}
	}
}
