package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/refmatch"
	"streamgraph/internal/stream"
)

// regressTimestamps pulls a quarter of the edges back in time by up to
// back, seeded.
func regressTimestamps(edges []stream.Edge, back, seed int64) []stream.Edge {
	rng := rand.New(rand.NewSource(seed))
	out := slices.Clone(edges)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i].TS -= rng.Int63n(back + 1)
		}
	}
	return out
}

// matchKeys is the sorted refmatch key list of one edge's matches.
func matchKeys(q *query.Graph, g *graph.Graph, ms []iso.Match) []string {
	keys := make([]string, 0, len(ms))
	for _, m := range ms {
		keys = append(keys, refmatch.MatchKey("q", q, g, m))
	}
	slices.Sort(keys)
	return keys
}

// footprintRun streams edges through a standalone Engine, which stores
// only the edges its query's types can match, and through a MultiEngine
// holding the same query over every edge (its replica filter is
// universal), per edge when bs is 0 and in batches of bs otherwise. It
// fails unless both report the same matches for every edge and the same
// SJ-Tree state after every call, and returns the matches reported and
// the live edges each graph ends with.
func footprintRun(t *testing.T, label string, q *query.Graph, edges []stream.Edge, cfg Config, bs int) (matches, live, fullLive int) {
	t.Helper()
	eng, err := New(q, cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", label, err)
	}
	m := NewMulti(MultiConfig{Window: cfg.Window})
	if err := m.Register("q", q, cfg); err != nil {
		t.Fatalf("%s: Register: %v", label, err)
	}
	ref := m.QueryEngine("q")
	at := 0
	for chunk := range slices.Chunk(edges, max(bs, 1)) {
		var got [][]iso.Match
		var want [][]NamedMatch
		if bs == 0 {
			got = [][]iso.Match{eng.ProcessEdge(chunk[0])}
			want = [][]NamedMatch{m.ProcessEdge(chunk[0])}
		} else {
			got = eng.ProcessBatch(chunk)
			want = m.ProcessBatchGrouped(chunk)
		}
		if len(got) != len(chunk) || len(want) != len(chunk) {
			t.Fatalf("%s: edge %d: %d and %d rows for %d edges", label, at, len(got), len(want), len(chunk))
		}
		for i := range chunk {
			wantMs := make([]iso.Match, len(want[i]))
			for k, nm := range want[i] {
				wantMs[k] = nm.Match
			}
			g, w := matchKeys(q, eng.Graph(), got[i]), matchKeys(q, m.Graph(), wantMs)
			if !slices.Equal(g, w) {
				t.Fatalf("%s: edge %d: the footprint engine reports\n %q\nthe full graph\n %q", label, at+i, g, w)
			}
			matches += len(g)
		}
		at += len(chunk)
		gs, ws := eng.Stats().Tree, ref.Stats().Tree
		if gs.Stored != ws.Stored || gs.Evicted != ws.Evicted {
			t.Fatalf("%s: after edge %d: tree stored/evicted %d/%d, the full graph's %d/%d", label, at-1, gs.Stored, gs.Evicted, ws.Stored, ws.Evicted)
		}
	}
	if got, want := eng.Stats().EdgesProcessed, int64(len(edges)); got != want {
		t.Errorf("%s: EdgesProcessed = %d, want every offered edge, %d", label, got, want)
	}
	return matches, eng.Graph().NumEdges(), m.Graph().NumEdges()
}

// TestFootprintRelabel pins the label consequence of footprint
// admission (see "ID lifetimes" in docs/ARCHITECTURE.md): h1 first
// arrives as a client on a GRE edge, a type the query cannot bind, then,
// while that edge is live, as a server on a TCP edge. The standalone
// Engine never stored the GRE edge, so h1 takes the label of its first
// admitted edge and the TCP edge matches server>server, per edge and in
// batches; so does a MultiEngine filtered to the query's footprint. A
// MultiEngine storing every edge keeps h1 a client and reports nothing.
func TestFootprintRelabel(t *testing.T) {
	q, err := query.Parse(`
		v a server
		v b server
		e a b TCP
	`)
	if err != nil {
		t.Fatal(err)
	}
	edges := []stream.Edge{
		{Src: "h1", SrcLabel: "client", Dst: "x", DstLabel: "server", Type: "GRE", TS: 1},
		{Src: "h1", SrcLabel: "server", Dst: "h2", DstLabel: "server", Type: "TCP", TS: 2},
	}
	const serverMatch = "q|a=h1,b=h2|0:h1>h2:TCP@2"
	cfg := Config{Strategy: StrategySingleLazy, Window: 10, Leaves: [][]int{{0}}}

	runEngine := func(bs int) (keys []string) {
		e, err := New(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for chunk := range slices.Chunk(edges, max(bs, 1)) {
			if bs == 0 {
				keys = append(keys, matchKeys(q, e.Graph(), e.ProcessEdge(chunk[0]))...)
				continue
			}
			for _, ms := range e.ProcessBatch(chunk) {
				keys = append(keys, matchKeys(q, e.Graph(), ms)...)
			}
		}
		return keys
	}
	runMulti := func(filtered bool) (keys []string) {
		m := NewMulti(MultiConfig{Window: cfg.Window})
		if err := m.Register("q", q, cfg); err != nil {
			t.Fatal(err)
		}
		if filtered {
			types, _ := q.TypeFootprint()
			m.SetReplicaFilter(types, false)
		}
		for _, se := range edges {
			for _, nm := range m.ProcessEdge(se) {
				keys = append(keys, refmatch.MatchKey(nm.Query, q, m.Graph(), nm.Match))
			}
		}
		return keys
	}

	want := []string{serverMatch}
	for _, bs := range []int{0, 1, len(edges)} {
		if got := runEngine(bs); !slices.Equal(got, want) {
			t.Errorf("Engine, batch %d: reports %q, want %q (h1 labelled by its first admitted edge)", bs, got, want)
		}
	}
	if got := runMulti(true); !slices.Equal(got, want) {
		t.Errorf("filtered MultiEngine: reports %q, want %q", got, want)
	}
	if got := runMulti(false); len(got) != 0 {
		t.Errorf("universal MultiEngine: reports %q, want nothing (h1 keeps the client label of its live GRE edge)", got)
	}
}

// TestFootprintDifferential holds the footprint admission of a
// standalone Engine to the full graph: for every differential workload,
// query and strategy, per edge and in batches of 1, 7 and 64, with
// monotone and with regressing timestamps, the Engine must report what
// a MultiEngine storing every edge reports, edge for edge, and its
// SJ-Tree must store and evict the same partial matches after every
// call — which holds only because a dropped edge is still offered to
// the sweep clock (an engine whose clock saw admitted edges only would
// sweep at other positions, and out of order at other cutoffs). The
// engine must end with fewer live edges, or the check would be vacuous.
func TestFootprintDifferential(t *testing.T) {
	strategies := []Strategy{StrategySingle, StrategySingleLazy, StrategyPath, StrategyPathLazy, StrategyVF2, StrategyIncIso}
	for _, wl := range diffWorkloads() {
		stats := collect(wl.edges)
		for _, order := range []struct {
			name  string
			edges []stream.Edge
		}{{"monotone", wl.edges}, {"regressing", regressTimestamps(wl.edges, 60, 3)}} {
			for qname, q := range wl.queries {
				total := 0
				for _, s := range strategies {
					for _, bs := range []int{0, 1, 7, 64} {
						label := fmt.Sprintf("%s/%s/%s/%v/batch %d", wl.name, order.name, qname, s, bs)
						cfg := Config{Strategy: s, Window: wl.window, Stats: stats}
						matches, live, fullLive := footprintRun(t, label, q, order.edges, cfg, bs)
						total += matches
						if live >= fullLive {
							t.Errorf("%s: the engine ends with %d live edges, the full graph with %d; want fewer", label, live, fullLive)
						}
					}
				}
				if total == 0 {
					t.Errorf("%s/%s/%s: no matches; the differential is vacuous", wl.name, order.name, qname)
				}
			}
		}
	}
}
