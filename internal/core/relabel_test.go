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
// under another label. Window 64, so the sweep clock steps by 2 ticks:
// h1 enters as a server at ts 2 and is past the window at ts 66, where
// the exact cutoff is 3 but the clock sweeps at 2 and keeps it. So when
// h1 re-appears claiming "client" at ts 67 it is still the live server,
// and h3>h4 completes nothing. The next sweep, at 4, runs after that
// edge is ingested. An engine that swept at the exact cutoff before that
// edge has forgotten h1 and reports the match h1>h3>h4.
const liveRelabelWindow = 64

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
		edge("h1", "server", "h2", "server", "UDP", 2),  // h1 enters as a server
		edge("x", "client", "y", "server", "GRE", 66),   // h1's edge leaves the window
		edge("u", "server", "w", "server", "UDP", 66),   // (a type the query holds)
		edge("h1", "client", "h3", "server", "TCP", 67), // h1, expired but not swept, claims client
		edge("h3", "server", "h4", "server", "UDP", 68), // completes h1>h3>h4 iff h1 is a client
	}
}

// liveRelabelMatch is the match an engine reports once it has taken h1's
// new label.
const liveRelabelMatch = "q|a=h1,b=h3,c=h4|0:h1>h3:TCP@67,1:h3>h4:UDP@68"

// TestLiveRelabelDifferential pins the label rule for a live name in
// every core tier against the serial engine (Engine.ProcessEdge), which
// keeps h1's first label and reports nothing. MultiEngine.ProcessEdge
// agrees, and so do Engine.ProcessBatch and MultiEngine.ProcessBatch in
// batches of 1, 2 and the whole stream: a batch sweeps before it
// ingests, at the cutoff of the clock before it, which is the cutoff the
// serial loop swept at after the edge before the batch. An engine that
// sweeps at the exact cutoff before h1 re-appears (ForceEvict) reports
// h1>h3>h4 under h1's new label, so the rule is live on this stream.
func TestLiveRelabelDifferential(t *testing.T) {
	q, edges := liveRelabel(t)
	cfg := Config{Strategy: StrategySingleLazy, Window: liveRelabelWindow, Leaves: [][]int{{0}, {1}}}
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
		m := NewMulti(MultiConfig{Window: liveRelabelWindow})
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
		for _, tier := range []struct {
			name string
			run  func(int) []string
		}{{"Engine.ProcessBatch", runEngine}, {"MultiEngine.ProcessBatch", runMulti}} {
			if got := tier.run(bs); !slices.Equal(got, serial) {
				t.Errorf("%s, batch %d: reports %q, want the serial engine's %q", tier.name, bs, got, serial)
			}
		}
	}

	e, err := New(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var swept []string
	for i, se := range edges {
		if i == 3 {
			e.host.ForceEvict()
		}
		for _, mt := range e.ProcessEdge(se) {
			swept = append(swept, refmatch.MatchKey("q", q, e.Graph(), mt))
		}
	}
	if want := []string{liveRelabelMatch}; !slices.Equal(swept, want) {
		t.Errorf("an engine swept at the exact cutoff before h1 re-appears reports %q, want %q", swept, want)
	}
}
