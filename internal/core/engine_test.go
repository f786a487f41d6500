package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/refmatch"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

func edge(src, dst, etype string, ts int64) stream.Edge {
	return stream.Edge{Src: src, SrcLabel: "ip", Dst: dst, DstLabel: "ip", Type: etype, TS: ts}
}

// signature canonicalizes a complete match against the engine's graph:
// for every query edge, the (src, dst, type, ts) of its data edge.
func signature(e *Engine, m iso.Match) string {
	g := e.Graph()
	parts := make([]string, 0, len(m.EdgeOf))
	for qe, eid := range m.EdgeOf {
		de, ok := g.Edge(eid)
		if !ok {
			return fmt.Sprintf("dead-edge-%d", eid)
		}
		parts = append(parts, fmt.Sprintf("%d:%s>%s@%d", qe, g.VertexName(de.Src), g.VertexName(de.Dst), de.TS))
	}
	return strings.Join(parts, "|")
}

// runStrategy processes the stream under one strategy and returns the
// sorted list of match signatures.
func runStrategy(t *testing.T, q *query.Graph, edges []stream.Edge, s Strategy, window int64, stats *selectivity.Collector) []string {
	t.Helper()
	eng, err := New(q, Config{Strategy: s, Window: window, Stats: stats})
	if err != nil {
		t.Fatalf("%v: New: %v", s, err)
	}
	var sigs []string
	for _, se := range edges {
		for _, m := range eng.ProcessEdge(se) {
			sigs = append(sigs, signature(eng, m))
		}
	}
	sort.Strings(sigs)
	return sigs
}

func allStrategies() []Strategy {
	return []Strategy{StrategySingle, StrategySingleLazy, StrategyPath, StrategyPathLazy, StrategyVF2, StrategyIncIso, StrategyAuto}
}

func collect(edges []stream.Edge) *selectivity.Collector {
	c := selectivity.NewCollector()
	c.AddAll(edges)
	return c
}

func TestSocialQueryAllStrategies(t *testing.T) {
	// The Figure 3 example: friend -> likes -> follows chain.
	q := &query.Graph{
		Vertices: []query.Vertex{
			{Name: "a", Label: "person"}, {Name: "b", Label: "person"},
			{Name: "c", Label: "artist"}, {Name: "d", Label: "person"},
		},
		Edges: []query.Edge{
			{Src: 0, Dst: 1, Type: "friend"},
			{Src: 1, Dst: 2, Type: "likes"},
			{Src: 3, Dst: 2, Type: "follows"},
		},
	}
	p := func(n string) string { return n }
	edges := []stream.Edge{
		{Src: p("george"), SrcLabel: "person", Dst: p("john"), DstLabel: "person", Type: "friend", TS: 1},
		{Src: p("john"), SrcLabel: "person", Dst: p("santana"), DstLabel: "artist", Type: "likes", TS: 2},
		{Src: p("paul"), SrcLabel: "person", Dst: p("santana"), DstLabel: "artist", Type: "follows", TS: 3},
		// Noise.
		{Src: p("ringo"), SrcLabel: "person", Dst: p("john"), DstLabel: "person", Type: "friend", TS: 4},
		{Src: p("mick"), SrcLabel: "person", Dst: p("dylan"), DstLabel: "artist", Type: "likes", TS: 5},
	}
	stats := collect(edges)
	var want []string
	for i, s := range allStrategies() {
		got := runStrategy(t, q, edges, s, 0, stats)
		// george-john-santana-paul and ringo-john-santana-paul.
		if len(got) != 2 {
			t.Fatalf("%v: got %d matches, want 2: %v", s, len(got), got)
		}
		if i == 0 {
			want = got
			continue
		}
		if !equalStrings(got, want) {
			t.Fatalf("%v disagrees:\n got %v\nwant %v", s, got, want)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLazyRobustToArrivalOrder(t *testing.T) {
	// The selective edge (rare) arrives LAST; the lazy strategies must
	// still find the full match via retrospective search.
	q := query.NewPath(query.Wildcard, "common", "rare")
	edges := []stream.Edge{
		edge("a", "b", "common", 1),
		edge("x", "y", "common", 2),
		edge("b", "c", "rare", 3),
	}
	// Train stats so "rare" is the selective leaf (leaf 0).
	training := []stream.Edge{
		edge("t1", "t2", "common", 1), edge("t2", "t3", "common", 2),
		edge("t3", "t4", "common", 3), edge("t4", "t5", "rare", 4),
	}
	stats := collect(training)
	for _, s := range allStrategies() {
		got := runStrategy(t, q, edges, s, 0, stats)
		if len(got) != 1 {
			t.Errorf("%v: got %d matches, want 1 (%v)", s, len(got), got)
		}
	}

	// Reverse arrival: rare first, then common.
	edges2 := []stream.Edge{
		edge("b", "c", "rare", 1),
		edge("a", "b", "common", 2),
	}
	for _, s := range allStrategies() {
		got := runStrategy(t, q, edges2, s, 0, stats)
		if len(got) != 1 {
			t.Errorf("%v reverse: got %d matches, want 1", s, len(got))
		}
	}
}

func TestWindowEnforced(t *testing.T) {
	q := query.NewPath(query.Wildcard, "a", "b")
	edges := []stream.Edge{
		edge("x", "y", "a", 1),
		edge("y", "z", "b", 500), // span 499
		edge("p", "q", "a", 1000),
		edge("q", "r", "b", 1100), // span 100
	}
	stats := collect(edges)
	for _, s := range allStrategies() {
		got := runStrategy(t, q, edges, s, 200, stats)
		if len(got) != 1 {
			t.Errorf("%v: window 200: got %d matches, want 1 (%v)", s, len(got), got)
		}
		got = runStrategy(t, q, edges, s, 0, stats)
		if len(got) != 2 {
			t.Errorf("%v: no window: got %d matches, want 2", s, len(got))
		}
	}
}

func TestEngineEviction(t *testing.T) {
	q := query.NewPath(query.Wildcard, "a", "b")
	stats := collect([]stream.Edge{edge("t", "u", "a", 1), edge("u", "v", "b", 2)})
	eng, err := New(q, Config{Strategy: StrategySingle, Window: 10, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(1); ts <= 100; ts++ {
		eng.ProcessEdge(edge(fmt.Sprintf("v%d", ts), fmt.Sprintf("v%d", ts+1), "a", ts))
	}
	if n := eng.Graph().NumEdges(); n > 12 {
		t.Errorf("graph retains %d edges with window 10", n)
	}
	if st := eng.Stats(); st.GraphEvicted == 0 {
		t.Errorf("no eviction recorded")
	}
	if stored := eng.Tree().StoredMatches(); stored > 12 {
		t.Errorf("tree retains %d matches with window 10", stored)
	}
}

func TestAutoStrategySelection(t *testing.T) {
	// Netflow-like skew: GRE and ESP are each individually common, but
	// the GRE->ESP adjacency occurs exactly once, so the path
	// decomposition is far more discriminative than the product of the
	// 1-edge selectivities.
	var training []stream.Edge
	ts := int64(0)
	for i := 0; i < 1000; i++ {
		ts++
		training = append(training, edge(fmt.Sprintf("h%d", i%10), fmt.Sprintf("h%d", (i+3)%10), "TCP", ts))
	}
	for i := 0; i < 200; i++ {
		ts++
		training = append(training, edge(fmt.Sprintf("g%d", i), fmt.Sprintf("g%d", i+1000), "GRE", ts))
		ts++
		training = append(training, edge(fmt.Sprintf("e%d", i), fmt.Sprintf("e%d", i+1000), "ESP", ts))
	}
	ts++
	training = append(training, edge("gx", "shared", "GRE", ts))
	ts++
	training = append(training, edge("shared", "ex", "ESP", ts))
	stats := collect(training)

	q := query.NewPath(query.Wildcard, "GRE", "ESP", "TCP")
	eng, err := New(q, Config{Strategy: StrategyAuto, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	// GRE->ESP path is extremely rare: ξ must be far below threshold and
	// the engine should pick the path decomposition.
	if !selectivity.PreferPathDecomposition(eng.RelativeSelectivity()) {
		t.Fatalf("ξ = %v should prefer path", eng.RelativeSelectivity())
	}
	if eng.ChosenKind().String() != "path" {
		t.Fatalf("chosen kind = %v, want path", eng.ChosenKind())
	}
}

func TestConfigErrors(t *testing.T) {
	q := query.NewPath(query.Wildcard, "a")
	if _, err := New(q, Config{Strategy: StrategySingle}); err == nil {
		t.Errorf("missing stats accepted")
	}
	if _, err := New(&query.Graph{}, Config{Strategy: StrategyVF2}); err == nil {
		t.Errorf("empty query accepted")
	}
}

// TestWideDecomposition: a decomposition may have any number of leaves.
// A 65-edge path, one leaf per edge, reads the oracle's match multiset
// on an 80-edge chain, which holds sixteen of them, eagerly and under
// Lazy Search. The chain's edges arrive in a shuffled order, so the lazy
// engine enables and repairs around all 64 gated leaves.
func TestWideDecomposition(t *testing.T) {
	const n, chain, window = 65, 80, 1000
	types := make([]string, n)
	leaves := make([][]int, n)
	for i := range types {
		types[i], leaves[i] = "t", []int{i}
	}
	q := query.NewPath(query.Wildcard, types...)
	var edges []stream.Edge
	for i, k := range rand.New(rand.NewSource(7)).Perm(chain) {
		edges = append(edges, edge(fmt.Sprintf("v%d", k), fmt.Sprintf("v%d", k+1), "t", int64(i+1)))
	}
	want := refmatch.ByQuery(refmatch.Run(map[string]*query.Graph{"p": q}, edges, window))["p"]
	if len(want) != chain-n+1 {
		t.Fatalf("the oracle finds %d matches, want %d", len(want), chain-n+1)
	}
	for _, s := range []Strategy{StrategySingle, StrategySingleLazy} {
		eng, err := New(q, Config{Strategy: s, Window: window, Leaves: leaves})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got := make(map[string]int)
		record := func(ms []iso.Match) {
			for _, m := range ms {
				got[refmatch.MatchKey("p", q, eng.Graph(), m)]++
			}
		}
		for _, se := range edges {
			record(eng.ProcessEdge(se))
		}
		record(eng.FlushPending())
		if d := refmatch.Diff(want, got); d != "" {
			t.Errorf("%v: %d-leaf decomposition differs from the oracle:\n%s", s, n, d)
		}
	}
}

func TestExplain(t *testing.T) {
	q := query.NewPath(query.Wildcard, "a")
	stats := collect([]stream.Edge{edge("x", "y", "a", 1)})
	eng, _ := New(q, Config{Strategy: StrategySingle, Stats: stats})
	ms := eng.ProcessEdge(edge("x", "y", "a", 1))
	if len(ms) != 1 {
		t.Fatal("no match")
	}
	s := eng.Explain(ms[0])
	if !strings.Contains(s, "v0=x") || !strings.Contains(s, "v1=y") {
		t.Errorf("Explain = %q", s)
	}
}

func TestRunFromReader(t *testing.T) {
	text := "a\tip\tb\tip\tt1\t1\nb\tip\tc\tip\tt2\t2\n"
	q := query.NewPath(query.Wildcard, "t1", "t2")
	stats := collect([]stream.Edge{edge("a", "b", "t1", 1), edge("b", "c", "t2", 2)})
	eng, _ := New(q, Config{Strategy: StrategyPathLazy, Stats: stats})
	n, err := eng.Run(stream.NewReader(strings.NewReader(text)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Run found %d matches, want 1", n)
	}
}

// --- The cross-strategy equivalence property ---------------------------

type genConfig struct {
	nVerts, nEdges int
	types          []string
	queryLen       int
	window         int64
	tree           bool
}

func randomStream(rng *rand.Rand, cfg genConfig) []stream.Edge {
	var out []stream.Edge
	for i := 0; i < cfg.nEdges; i++ {
		s := rng.Intn(cfg.nVerts)
		d := rng.Intn(cfg.nVerts)
		if s == d {
			continue
		}
		out = append(out, edge(
			fmt.Sprintf("n%d", s), fmt.Sprintf("n%d", d),
			cfg.types[rng.Intn(len(cfg.types))], int64(len(out)+1)))
	}
	return out
}

func randomQuery(rng *rand.Rand, cfg genConfig) *query.Graph {
	if !cfg.tree {
		qt := make([]string, cfg.queryLen)
		for i := range qt {
			qt[i] = cfg.types[rng.Intn(len(cfg.types))]
		}
		return query.NewPath(query.Wildcard, qt...)
	}
	// Random tree: attach each new edge to a random existing vertex,
	// random direction.
	q := &query.Graph{}
	q.AddVertex("v0", query.Wildcard)
	for i := 0; i < cfg.queryLen; i++ {
		anchor := rng.Intn(len(q.Vertices))
		nv := q.AddVertex(fmt.Sprintf("v%d", i+1), query.Wildcard)
		tp := cfg.types[rng.Intn(len(cfg.types))]
		if rng.Intn(2) == 0 {
			q.AddEdge(anchor, nv, tp)
		} else {
			q.AddEdge(nv, anchor, tp)
		}
	}
	return q
}

func TestPropertyAllStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	configs := []genConfig{
		{nVerts: 6, nEdges: 60, types: []string{"a", "b"}, queryLen: 2},
		{nVerts: 8, nEdges: 80, types: []string{"a", "b", "c"}, queryLen: 3},
		{nVerts: 8, nEdges: 80, types: []string{"a", "b", "c"}, queryLen: 3, window: 25},
		{nVerts: 10, nEdges: 70, types: []string{"a", "b", "c", "d"}, queryLen: 4, window: 40},
		{nVerts: 8, nEdges: 60, types: []string{"a", "b", "c"}, queryLen: 3, tree: true},
		{nVerts: 10, nEdges: 70, types: []string{"a", "b", "c"}, queryLen: 4, window: 30, tree: true},
	}
	for ci, cfg := range configs {
		for trial := 0; trial < 8; trial++ {
			edges := randomStream(rng, cfg)
			q := randomQuery(rng, cfg)
			stats := collect(edges)
			var want []string
			var wantStrat Strategy
			for i, s := range allStrategies() {
				got := runStrategy(t, q, edges, s, cfg.window, stats)
				if i == 0 {
					want, wantStrat = got, s
					continue
				}
				if !equalStrings(got, want) {
					t.Fatalf("config %d trial %d: %v (%d matches) disagrees with %v (%d matches)\nquery:\n%s\nonly in %v: %v\nonly in %v: %v",
						ci, trial, s, len(got), wantStrat, len(want), q,
						s, diff(got, want), wantStrat, diff(want, got))
				}
			}
		}
	}
}

func diff(a, b []string) []string {
	inB := make(map[string]int)
	for _, x := range b {
		inB[x]++
	}
	var out []string
	for _, x := range a {
		if inB[x] > 0 {
			inB[x]--
			continue
		}
		out = append(out, x)
		if len(out) > 4 {
			break
		}
	}
	return out
}

func TestStatsCounters(t *testing.T) {
	q := query.NewPath(query.Wildcard, "a", "b")
	edges := []stream.Edge{
		edge("x", "y", "a", 1),
		edge("y", "z", "b", 2),
	}
	stats := collect(edges)
	eng, _ := New(q, Config{Strategy: StrategySingleLazy, Stats: stats})
	for _, se := range edges {
		eng.ProcessEdge(se)
	}
	st := eng.Stats()
	if st.EdgesProcessed != 2 {
		t.Errorf("EdgesProcessed = %d", st.EdgesProcessed)
	}
	if st.CompleteMatches != 1 {
		t.Errorf("CompleteMatches = %d", st.CompleteMatches)
	}
	if st.LeafSearches == 0 || st.IsoSteps == 0 {
		t.Errorf("work counters empty: %+v", st)
	}
	if st.Tree.Emitted != 1 {
		t.Errorf("Tree.Emitted = %d", st.Tree.Emitted)
	}
}

func TestStrategyStrings(t *testing.T) {
	for _, s := range allStrategies() {
		if s.String() == "" || strings.HasPrefix(s.String(), "Strategy(") {
			t.Errorf("missing name for %d", int(s))
		}
	}
	if Strategy(99).String() != "Strategy(99)" {
		t.Errorf("unknown strategy string")
	}
	if StrategySingle.Lazy() || !StrategyPathLazy.Lazy() {
		t.Errorf("Lazy() wrong")
	}
}

func TestGraphAccessors(t *testing.T) {
	q := query.NewPath(query.Wildcard, "a")
	stats := collect([]stream.Edge{edge("x", "y", "a", 1)})
	eng, _ := New(q, Config{Strategy: StrategyPathLazy, Stats: stats})
	if eng.Graph() == nil || eng.Query() != q || eng.Tree() == nil {
		t.Errorf("accessors broken")
	}
	vf2, _ := New(q, Config{Strategy: StrategyVF2})
	if vf2.Tree() != nil {
		t.Errorf("VF2 engine should have no tree")
	}
	var _ graph.VertexID // keep import
}
