package core

import (
	"fmt"
	"runtime"
	"testing"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/refmatch"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

// The vertex-churn differential: graph.Graph recycles a VertexID once a
// sweep finds the vertex isolated, and the engine holds VertexIDs in
// partial matches, the lazy stamps and queued retrospective searches.
// These tests run streams whose name domain dwarfs the live set — every
// ID changes hands many times — through every ingestion path and
// strategy, and require the resolved match multiset of the
// never-forgetting oracle in internal/refmatch. The persist and shard
// packages run the same workload through their own tiers.

var churnStrategies = []Strategy{StrategySingle, StrategySingleLazy, StrategyPathLazy, StrategyAuto}

// churnWorkload returns the churn stream, its statistics and the
// oracle's match multiset per query.
func churnWorkload(t *testing.T, seed int64) ([]stream.Edge, *selectivity.Collector, map[string]map[string]int) {
	t.Helper()
	edges, want, err := refmatch.ChurnWorkload(seed)
	if err != nil {
		t.Fatal(err)
	}
	stats := selectivity.NewCollector()
	stats.AddAll(edges)
	return edges, stats, refmatch.ByQuery(want)
}

func TestVertexChurnEngine(t *testing.T) {
	edges, stats, want := churnWorkload(t, 1)
	for name, q := range refmatch.ChurnQueries() {
		for _, s := range churnStrategies {
			// batch 0 is the per-edge path.
			for _, batch := range []int{0, 1, 37, 64} {
				label := fmt.Sprintf("%s/%v/batch%d", name, s, batch)
				eng, err := New(q, Config{Strategy: s, Window: refmatch.ChurnWindow, Stats: stats})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got := make(map[string]int)
				record := func(ms []iso.Match) {
					for _, m := range ms {
						got[refmatch.MatchKey(name, q, eng.Graph(), m)]++
					}
				}
				if batch == 0 {
					for _, se := range edges {
						record(eng.ProcessEdge(se))
					}
				} else {
					for lo := 0; lo < len(edges); lo += batch {
						for _, ms := range eng.ProcessBatch(edges[lo:min(lo+batch, len(edges))]) {
							record(ms)
						}
					}
				}
				record(eng.FlushPending())
				if d := refmatch.Diff(want[name], got); d != "" {
					t.Fatalf("%s: match multiset differs from the never-recycling oracle:\n%s", label, d)
				}
				// The window is under 32 ticks, so the sweep clock steps
				// by one tick: a sweep leaves the graph holding the window
				// it cut at, and before the next one at most one edge
				// arrives per edge, one batch per batch, each edge naming
				// two vertices.
				g := eng.Graph()
				if bound := refmatch.ChurnLive + 2*max(batch, 1); g.NumVertices() > bound {
					t.Fatalf("%s: %d vertex slots, want <= %d", label, g.NumVertices(), bound)
				}
				if st := eng.Stats(); st.VerticesReclaimed == 0 || st.VerticesReclaimed != g.VerticesReclaimed() {
					t.Fatalf("%s: Stats.VerticesReclaimed = %d, graph reclaimed %d", label, st.VerticesReclaimed, g.VerticesReclaimed())
				}
			}
		}
	}
}

func TestVertexChurnMulti(t *testing.T) {
	edges, stats, want := churnWorkload(t, 2)
	queries := refmatch.ChurnQueries()
	strategies := map[string]Strategy{"path3": StrategySingleLazy, "path2": StrategyPathLazy, "fan": StrategySingle}
	for _, batch := range []int{0, 48} {
		label := fmt.Sprintf("batch%d", batch)
		m := NewMulti(MultiConfig{Window: refmatch.ChurnWindow})
		for name, q := range queries {
			if err := m.Register(name, q, Config{Strategy: strategies[name], Stats: stats}); err != nil {
				t.Fatalf("%s: register %s: %v", label, name, err)
			}
		}
		got := make(map[string]map[string]int)
		for name := range queries {
			got[name] = make(map[string]int)
		}
		record := func(nms []NamedMatch) {
			for _, nm := range nms {
				got[nm.Query][refmatch.MatchKey(nm.Query, queries[nm.Query], m.Graph(), nm.Match)]++
			}
		}
		if batch == 0 {
			for _, se := range edges {
				record(m.ProcessEdge(se))
			}
		} else {
			for lo := 0; lo < len(edges); lo += batch {
				record(m.ProcessBatch(edges[lo:min(lo+batch, len(edges))]))
			}
		}
		record(m.FlushPending())
		for name := range queries {
			if d := refmatch.Diff(want[name], got[name]); d != "" {
				t.Fatalf("%s: %s differs from the never-recycling oracle:\n%s", label, name, d)
			}
		}
	}
}

// heapInUse is the live heap after a collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestVertexChurnMultiHeapFlat: no table behind a MultiEngine is sized
// by the stream. Over a churn stream that names ~70k hosts, a few dozen
// at a time, the heap after the last three quarters is what it was
// after the first; a per-name table — the full-stream collector the
// engine used to feed held an entry and a counter list per host, 5 MB
// over that stretch — would show as growth.
func TestVertexChurnMultiHeapFlat(t *testing.T) {
	const n, batch = 96_000, 48
	edges := refmatch.Churn(9, n, 1<<30)
	stats := selectivity.NewCollector()
	stats.AddAll(edges[:2000])
	m := NewMulti(MultiConfig{Window: refmatch.ChurnWindow})
	for name, q := range refmatch.ChurnQueries() {
		if err := m.Register(name, q, Config{Strategy: StrategySingleLazy, Stats: stats}); err != nil {
			t.Fatal(err)
		}
	}
	var early uint64
	for lo := 0; lo < n; lo += batch {
		if lo == n/4 {
			early = heapInUse()
		}
		if (lo/batch)%2 == 0 {
			m.ProcessBatch(edges[lo : lo+batch])
		} else {
			for _, se := range edges[lo : lo+batch] {
				m.ProcessEdge(se)
			}
		}
	}
	late := heapInUse()
	if reclaimed := m.Graph().VerticesReclaimed(); reclaimed < 50_000 {
		t.Fatalf("only %d vertices reclaimed; the stream does not churn", reclaimed)
	}
	if late > early+1<<20 {
		t.Fatalf("heap grew from %d to %d bytes over the last three quarters of the stream", early, late)
	}
	runtime.KeepAlive(m)
}

// TestSweepDropsRetroOfIsolatedVertex pins the one way a queued
// retrospective search can outlive its vertex. A queue normally drains
// within the edge that filled it, but a live checkpoint restore leaves
// work queued between edges, and the batch path sweeps before it
// ingests: the sweep reclaims the vertex, the
// batch hands its slot to a new host, and only then does the queue
// drain. The sweep must drop the item, or the search runs around the
// wrong host.
func TestSweepDropsRetroOfIsolatedVertex(t *testing.T) {
	q := query.NewPath(query.Wildcard, "TCP", "UDP")
	eng, err := New(q, Config{Strategy: StrategySingleLazy, Window: 10, Leaves: [][]int{{0}, {1}}})
	if err != nil {
		t.Fatal(err)
	}
	edge := func(src, dst, typ string, ts int64) stream.Edge {
		return stream.Edge{Src: src, SrcLabel: "ip", Dst: dst, DstLabel: "ip", Type: typ, TS: ts}
	}
	eng.ProcessBatch([]stream.Edge{edge("a", "b", "TCP", 1)})
	eng.ProcessBatch([]stream.Edge{edge("x", "y", "GRE", 100)}) // moves the clock past a->b's window
	b := eng.Graph().VertexByName("b")
	eng.RestorePendingRetro([][]graph.VertexID{nil, {b}})
	before := eng.Stats().RetroSearches

	out := eng.ProcessBatch([]stream.Edge{
		edge("p", "q", "TCP", 101), // p and q take the slots the sweep reclaims
		edge("q", "r", "UDP", 101),
	})
	g := eng.Graph()
	if g.VertexByName("b") != graph.NoVertex {
		t.Fatal("b is still named after its only edge expired")
	}
	if g.VertexByName("p") != b && g.VertexByName("q") != b {
		t.Fatal("b's slot was not reused; the test no longer exercises the hazard")
	}
	if n := len(out[0]) + len(out[1]); n != 1 {
		t.Fatalf("got %d matches, want exactly p-TCP->q-UDP->r", n)
	}
	// p -TCP-> q enables the UDP leaf at p and q: two searches. A third
	// is the stale item running around whoever holds b's slot now.
	if got := eng.Stats().RetroSearches - before; got != 2 {
		t.Fatalf("%d retrospective searches in the batch, want 2", got)
	}
}
