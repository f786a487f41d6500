package core

import (
	"math/rand"
	"testing"

	"streamgraph/internal/datagen"
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
)

// TestFlushPendingRunsQueuedRepair: FlushPending runs a retrospective
// repair queued between edges, as a restore leaves one
// (RestorePendingRetro), and the repair finds the leaf matches the
// stored partials join. A leaf match holds iso.NoEdge in the slots of
// the other leaves' edges, so the flush, which excludes no edge, must
// not drop candidates holding iso.NoEdge.
func TestFlushPendingRunsQueuedRepair(t *testing.T) {
	q := query.NewPath(query.Wildcard, "A", "B")
	eng, err := New(q, Config{Strategy: StrategySingleLazy, Window: 100, Leaves: [][]int{{0}, {1}}})
	if err != nil {
		t.Fatal(err)
	}
	eng.ProcessEdge(edge("v", "w", "B", 1)) // v is not enabled: the B leaf is not searched
	// Store x>v at the A leaf as a restore does, with the repair its
	// arrival would have run queued.
	g := eng.Graph()
	x, v := g.EnsureVertex("x", "ip"), g.VertexByName("v")
	m := iso.NewMatch(q)
	m.VertexOf[0], m.VertexOf[1] = x, v
	m.EdgeOf[0] = g.AddEdge(x, v, graph.TypeID(g.Types().Intern("A")), 2)
	m.MinTS, m.MaxTS = 2, 2
	if err := eng.Tree().RestoreStored(eng.Tree().LeafNode(0).ID, m); err != nil {
		t.Fatal(err)
	}
	eng.RestoreLazyStamps()
	eng.RestorePendingRetro([][]graph.VertexID{nil, {v}})
	if got := eng.FlushPending(); len(got) != 1 {
		t.Fatalf("the flush completed %d matches, want x>v>w", len(got))
	}
}

// TestRetroStampLapse pins what a Lazy Search stamp means. A match
// stored at leaf 0 enables leaf 1 around its vertices until its MinTS +
// Window; a leaf edge arriving at or after that is not searched, so not
// stored; the next enablement repairs the vertex once, storing exactly
// the edges that arrived during the lapse; and an enablement that finds
// the vertex still enabled repairs nothing. The engine reports, edge for
// edge, what StrategySingle reports.
func TestRetroStampLapse(t *testing.T) {
	const window = 100
	q := query.NewPath(query.Wildcard, "A", "B")
	edges := []struct {
		src, dst, typ string
		ts            int64
	}{
		{"h1", "v", "A", 10},  // enables v until 110
		{"v", "w1", "B", 109}, // enabled: stored, joins h1
		{"v", "w2", "B", 110}, // lapsed: not searched
		{"v", "w3", "B", 130}, // lapsed: not searched
		{"h2", "v", "A", 140}, // re-enables v until 240: one repair stores w2 and w3
		{"h3", "v", "A", 150}, // v is enabled throughout: no repair
	}
	type delta struct {
		matches, leafSearches, retroSearches, retroMatches, inserted int64
	}
	// A stored A edge enables both its vertices, and a vertex's first
	// enablement repairs its whole neighborhood: one retrospective search
	// per new A source, finding nothing, beside v's own.
	want := []delta{
		{0, 2, 2, 0, 1}, // h1 and v enabled for the first time
		{1, 2, 0, 0, 1},
		{0, 1, 0, 0, 0},
		{0, 1, 0, 0, 0},
		{3, 2, 2, 2, 3}, // h2 new; v's repair stores w2 and w3, w1 is below its floor
		{3, 2, 1, 0, 1}, // h3 new; v still enabled
	}
	eng, err := New(q, Config{Strategy: StrategySingleLazy, Window: window, Leaves: [][]int{{0}, {1}}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(q, Config{Strategy: StrategySingle, Window: window, Leaves: [][]int{{0}, {1}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range edges {
		before := eng.Stats()
		ms := eng.ProcessEdge(edge(e.src, e.dst, e.typ, e.ts))
		after := eng.Stats()
		got := delta{
			int64(len(ms)),
			after.LeafSearches - before.LeafSearches,
			after.RetroSearches - before.RetroSearches,
			after.RetroMatches - before.RetroMatches,
			after.Tree.Inserted - before.Tree.Inserted,
		}
		if got != want[i] {
			t.Fatalf("edge %d (%s>%s %s@%d): {matches, leaf searches, retro searches, retro matches, stored} = %v, want %v",
				i, e.src, e.dst, e.typ, e.ts, got, want[i])
		}
		if after.Tree.Deduped != 0 {
			t.Fatalf("edge %d: %d duplicate inserts; the repair's floor should have kept w1 out", i, after.Tree.Deduped)
		}
		lazySigs := appendEdgeSigs(eng, nil, ms)[0]
		refSigs := appendEdgeSigs(ref, nil, ref.ProcessEdge(edge(e.src, e.dst, e.typ, e.ts)))[0]
		if !equalStrings(lazySigs, refSigs) {
			t.Fatalf("edge %d: lazy reports %v, StrategySingle %v", i, lazySigs, refSigs)
		}
		if i == 0 {
			v := eng.Graph().VertexByName("v")
			if !eng.enabled(v, 1, 10+window-1) || eng.enabled(v, 1, 10+window) {
				t.Fatalf("after h1@10, leaf 1 at v must be enabled for an edge at %d and not at %d", 10+window-1, 10+window)
			}
		}
	}
}

// TestLazyOutOfOrderDifferential streams Netflow with a quarter of its
// timestamps pulled back by up to 60 through both lazy strategies and
// StrategySingle, over 40 seeds and three path queries. A lazy engine
// must report every match StrategySingle reports. Out of order, it may
// report more: a repair searches the graph, where an edge a sweep has
// not reached yet can still complete a match the eager tree evicted.
//
// The case it guards is a stamp judged against the current edge's
// timestamp instead of the highest one searched: after a regression,
// a stamp above the current timestamp can lie below edges searched
// earlier and kept out, and raising it must still repair them.
func TestLazyOutOfOrderDifferential(t *testing.T) {
	const window = 150
	queries := map[string]*query.Graph{
		"icmp-tcp":     query.NewPath(query.Wildcard, "ICMP", "TCP"),
		"udp-tcp":      query.NewPath(query.Wildcard, "UDP", "TCP"),
		"icmp-udp-tcp": query.NewPath(query.Wildcard, "ICMP", "UDP", "TCP"),
	}
	total := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		edges := datagen.Netflow(datagen.NetflowConfig{Seed: seed, Edges: 1200, Hosts: 60})
		rng := rand.New(rand.NewSource(seed))
		for i := range edges {
			if rng.Intn(4) == 0 {
				edges[i].TS -= 1 + rng.Int63n(60)
			}
		}
		stats := collect(edges)
		for name, q := range queries {
			want := runStrategy(t, q, edges, StrategySingle, window, stats)
			total[name] += len(want)
			for _, s := range []Strategy{StrategySingleLazy, StrategyPathLazy} {
				got := runStrategy(t, q, edges, s, window, stats)
				if missing := missingFrom(got, want); len(missing) > 0 {
					t.Errorf("seed %d %s %v: %d matches, StrategySingle %d; missing %d, first %s",
						seed, name, s, len(got), len(want), len(missing), missing[0])
				}
			}
		}
	}
	for name := range queries {
		if total[name] == 0 {
			t.Errorf("%s: no matches in any seed; the differential is vacuous for it", name)
		}
	}
	t.Logf("StrategySingle matches per query: %v", total)
}

// missingFrom returns the entries of the sorted multiset want that the
// sorted multiset got lacks.
func missingFrom(got, want []string) []string {
	var missing []string
	i := 0
	for _, w := range want {
		for i < len(got) && got[i] < w {
			i++
		}
		if i < len(got) && got[i] == w {
			i++
			continue
		}
		missing = append(missing, w)
	}
	return missing
}
