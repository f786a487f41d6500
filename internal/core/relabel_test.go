package core

import (
	"slices"
	"testing"

	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/refmatch"
	"streamgraph/internal/stream"
)

// liveRelabel is the one case in which the label rule depends on sweep
// timing (see "ID lifetimes" in docs/ARCHITECTURE.md): a name whose
// edges have expired but which no sweep has reclaimed yet re-appears
// under another label. Window 10, a sweep every 4 edges: h1 enters as a
// server at ts 1 and is past the window by ts 20; the serial engine's
// next sweep runs after the 4th edge is ingested, so when h1 re-appears
// claiming "client" in that edge it is still the live server, and h3>h4
// completes nothing. An engine that swept before that edge was ingested
// has forgotten h1 and reports the match h1>h3>h4.
const liveRelabelWindow, liveRelabelEvict = 10, 4

func liveRelabel(t *testing.T) (*query.Graph, []stream.Edge) {
	t.Helper()
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
	return q, []stream.Edge{
		edge("h1", "server", "h2", "server", "UDP", 1),  // h1 enters as a server
		edge("x", "client", "y", "server", "GRE", 20),   // h1's edge leaves the window
		edge("u", "server", "w", "server", "UDP", 21),   // (a type the query holds)
		edge("h1", "client", "h3", "server", "TCP", 22), // h1, expired but not swept, claims client
		edge("h3", "server", "h4", "server", "UDP", 23), // completes h1>h3>h4 iff h1 is a client
	}
}

// liveRelabelMatch is the match an engine reports once it has taken h1's
// new label.
const liveRelabelMatch = "q|a=h1,b=h3,c=h4|0:h1>h3:TCP@22,1:h3>h4:UDP@23"

// TestLiveRelabelDifferential pins the label rule for a live name in
// every core tier against the serial engine (Engine.ProcessEdge), which
// keeps h1's first label and reports nothing. MultiEngine.ProcessEdge
// agrees. The batch path does not when a batch boundary puts a sweep
// between h1's expiry and its re-appearance: ProcessBatch sweeps before
// it ingests (so its cutoff never passes a serial mid-batch cutoff), a
// sweep the serial loop runs just after the 4th edge's ingest runs just
// before it, and the batch path reports h1>h3>h4 under h1's new label.
// That is the exact divergence asserted below, for Engine.ProcessBatch
// and MultiEngine.ProcessBatch alike; a batch holding the whole stream
// sweeps before h1 exists and agrees.
func TestLiveRelabelDifferential(t *testing.T) {
	q, edges := liveRelabel(t)
	cfg := Config{Strategy: StrategySingleLazy, Window: liveRelabelWindow, EvictEvery: liveRelabelEvict, Leaves: [][]int{{0}, {1}}}
	// Each tier runs the stream per edge (batch 0) or in batches of bs.
	runEngine := func(bs int) (keys []string) {
		e, err := New(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		collect := func(ms []iso.Match) {
			for _, mt := range ms {
				keys = append(keys, refmatch.MatchKey("q", q, e.Graph(), mt))
			}
		}
		for chunk := range slices.Chunk(edges, max(bs, 1)) {
			if bs == 0 {
				collect(e.ProcessEdge(chunk[0]))
				continue
			}
			for _, ms := range e.ProcessBatch(chunk) {
				collect(ms)
			}
		}
		return keys
	}
	runMulti := func(bs int) (keys []string) {
		m := NewMulti(MultiConfig{Window: liveRelabelWindow, EvictEvery: liveRelabelEvict})
		if err := m.Register("q", q, cfg); err != nil {
			t.Fatal(err)
		}
		if err := m.Register("gre", query.NewPath(query.Wildcard, "GRE", "GRE"), cfg); err != nil {
			t.Fatal(err)
		}
		for chunk := range slices.Chunk(edges, max(bs, 1)) {
			var nms []NamedMatch
			if bs == 0 {
				nms = m.ProcessEdge(chunk[0])
			} else {
				nms = m.ProcessBatch(chunk)
			}
			for _, nm := range nms {
				keys = append(keys, refmatch.MatchKey(nm.Query, q, m.Graph(), nm.Match))
			}
		}
		return keys
	}

	serial := runEngine(0)
	if len(serial) != 0 {
		t.Fatalf("Engine.ProcessEdge reports %q; want nothing (h1 keeps its first label while live)", serial)
	}
	if got := runMulti(0); !slices.Equal(got, serial) {
		t.Errorf("MultiEngine.ProcessEdge reports %q, want the serial engine's %q", got, serial)
	}
	for _, bs := range []int{1, 2, len(edges)} {
		want := []string{liveRelabelMatch}
		if bs == len(edges) {
			want = serial
		}
		for _, tier := range []struct {
			name string
			run  func(int) []string
		}{{"Engine.ProcessBatch", runEngine}, {"MultiEngine.ProcessBatch", runMulti}} {
			if got := tier.run(bs); !slices.Equal(got, want) {
				t.Errorf("%s, batch %d: reports %q, want %q", tier.name, bs, got, want)
			}
		}
	}
}
