package persist

import (
	"bytes"
	"fmt"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/refmatch"
	"streamgraph/internal/stream"
)

// The persist tier of the vertex-churn differential (see
// internal/core/churn_test.go): an engine checkpointed and restored
// every few hundred edges of a stream that keeps recycling VertexIDs
// must report the match multiset of the never-recycling oracle. A
// snapshot renumbers vertices, so every holder of a VertexID — partial
// matches, lazy stamps, queued retrospective work — crosses a remapping
// on top of the recycling.

func TestVertexChurnSaveLoad(t *testing.T) {
	edges, oracle, err := refmatch.ChurnWorkload(3)
	if err != nil {
		t.Fatal(err)
	}
	want := refmatch.ByQuery(oracle)
	c := stats(edges)
	const cutEvery = 700
	for name, q := range refmatch.ChurnQueries() {
		for _, s := range []core.Strategy{core.StrategySingle, core.StrategySingleLazy, core.StrategyPathLazy, core.StrategyAuto} {
			label := fmt.Sprintf("%s/%v", name, s)
			eng, err := core.New(q, core.Config{Strategy: s, Window: refmatch.ChurnWindow, Stats: c})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got := make(map[string]int)
			record := func(ms []iso.Match) {
				for _, m := range ms {
					got[refmatch.MatchKey(name, q, eng.Graph(), m)]++
				}
			}
			for i, se := range edges {
				if i > 0 && i%cutEvery == 0 {
					// Save flushes deferred lazy work; those matches
					// resolve against the engine being saved.
					var buf bytes.Buffer
					flushed, err := Save(&buf, eng)
					if err != nil {
						t.Fatalf("%s: save at %d: %v", label, i, err)
					}
					record(flushed)
					if eng, err = Load(&buf); err != nil {
						t.Fatalf("%s: load at %d: %v", label, i, err)
					}
				}
				record(eng.ProcessEdge(se))
			}
			record(eng.FlushPending())
			if d := refmatch.Diff(want[name], got); d != "" {
				t.Fatalf("%s: match multiset differs from the never-recycling oracle:\n%s", label, d)
			}
		}
	}
}

func TestVertexChurnSaveLoadMulti(t *testing.T) {
	edges, oracle, err := refmatch.ChurnWorkload(4)
	if err != nil {
		t.Fatal(err)
	}
	want := refmatch.ByQuery(oracle)
	c := stats(edges)
	queries := refmatch.ChurnQueries()
	strategies := map[string]core.Strategy{"path3": core.StrategySingleLazy, "path2": core.StrategyPathLazy, "fan": core.StrategySingle}
	const cutEvery, batch = 900, 40
	m := core.NewMulti(core.MultiConfig{Window: refmatch.ChurnWindow})
	for name, q := range queries {
		if err := m.Register(name, q, core.Config{Strategy: strategies[name], Stats: c}); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string]map[string]int)
	for name := range queries {
		got[name] = make(map[string]int)
	}
	record := func(nms []core.NamedMatch) {
		for _, nm := range nms {
			got[nm.Query][refmatch.MatchKey(nm.Query, queries[nm.Query], m.Graph(), nm.Match)]++
		}
	}
	for lo := 0; lo < len(edges); lo += batch {
		if lo > 0 && lo%cutEvery < batch {
			var buf bytes.Buffer
			if err := SaveMulti(&buf, m); err != nil {
				t.Fatalf("save at %d: %v", lo, err)
			}
			restored, err := LoadMulti(&buf)
			if err != nil {
				t.Fatalf("load at %d: %v", lo, err)
			}
			m = restored
		}
		record(m.ProcessBatch(edges[lo:min(lo+batch, len(edges))]))
	}
	record(m.FlushPending())
	for name := range queries {
		if d := refmatch.Diff(want[name], got[name]); d != "" {
			t.Fatalf("%s differs from the never-recycling oracle:\n%s", name, d)
		}
	}
}

// TestRestoredAgreesOnRelabeledName pins the label rule across a
// restart: a name that fully expires and re-enters under another label
// is a new vertex with the new label — in an uninterrupted engine as in
// one restored from a snapshot taken in between (which never carried the
// expired vertex). Before vertices were reclaimed the uninterrupted
// engine kept the first label forever and the two disagreed.
func TestRestoredAgreesOnRelabeledName(t *testing.T) {
	q, err := query.Parse(`
		v a client
		v b server
		v c server
		e a b TCP
		e b c UDP
	`)
	if err != nil {
		t.Fatal(err)
	}
	edge := func(src, sl, dst, dl, typ string, ts int64) stream.Edge {
		return stream.Edge{Src: src, SrcLabel: sl, Dst: dst, DstLabel: dl, Type: typ, TS: ts}
	}
	prefix := []stream.Edge{
		edge("h1", "server", "h2", "server", "UDP", 1), // h1 starts life as a server
		edge("x", "client", "y", "server", "GRE", 30),  // the window (10) moves past h1's edge; the sweep after it reclaims h1
		edge("x", "client", "y", "server", "GRE", 31),  // ... and the next sweep finds nothing of it
	}
	suffix := []stream.Edge{
		edge("h1", "client", "h3", "server", "TCP", 32), // h1 re-enters as a client
		edge("h3", "server", "h4", "server", "UDP", 33), // completes h1>h3>h4 only if h1 is a client
		// h3 still has live edges: claiming another label changes nothing.
		edge("h3", "client", "h5", "server", "TCP", 34),
		edge("h5", "server", "h6", "server", "UDP", 35),
	}

	mk := func() *core.MultiEngine {
		m := core.NewMulti(core.MultiConfig{Window: 10})
		if err := m.Register("q", q, core.Config{Strategy: core.StrategySingleLazy, Leaves: [][]int{{0}, {1}}}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(m *core.MultiEngine, edges []stream.Edge) (keys []string) {
		for _, se := range edges {
			for _, nm := range m.ProcessEdge(se) {
				keys = append(keys, refmatch.MatchKey("q", q, m.Graph(), nm.Match))
			}
		}
		return keys
	}

	whole, cut := mk(), mk()
	run(whole, prefix)
	run(cut, prefix)
	var buf bytes.Buffer
	if err := SaveMulti(&buf, cut); err != nil {
		t.Fatal(err)
	}
	if cut, err = LoadMulti(&buf); err != nil {
		t.Fatal(err)
	}
	a, b := run(whole, suffix), run(cut, suffix)
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatalf("h1 re-entered as a client: uninterrupted engine reports %v, restored engine %v; want the one match h1>h3>h4 from both", a, b)
	}
}
