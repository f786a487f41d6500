package shard

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/query"
	"streamgraph/internal/refmatch"
	"streamgraph/internal/stream"
)

// TestLiveRelabelDifferentialSharded pins the label rule for a live name
// in the sharded tier, on the stream of core's
// TestLiveRelabelDifferential (window 64, a sweep clock stepping by 2
// ticks): h1 enters as a server, its edge expires, and before the serial
// engine sweeps it h1 re-appears claiming "client". The serial engine
// keeps h1's first label and reports nothing, and so does every ingest
// shape here. "q" owns a slot of its own, whose filtered replica admits
// only TCP and UDP and is never offered the GRE edge; FullReplicas
// offers its replica every edge. Either way a worker runs every message,
// one edge or many, through the batch path, which sweeps before it
// ingests at the cutoff the serial engine swept at after the edge
// before, so h1 is still the live server when it re-appears.
func TestLiveRelabelDifferentialSharded(t *testing.T) {
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
	edges := []stream.Edge{
		edge("h1", "server", "h2", "server", "UDP", 2),  // h1 enters as a server
		edge("x", "client", "y", "server", "GRE", 66),   // h1's edge leaves the window
		edge("u", "server", "w", "server", "UDP", 66),   // (a type the query holds)
		edge("h1", "client", "h3", "server", "TCP", 67), // h1, expired but not swept, claims client
		edge("h3", "server", "h4", "server", "UDP", 68), // completes h1>h3>h4 iff h1 is a client
	}
	cfg := core.Config{Strategy: core.StrategySingleLazy, Leaves: [][]int{{0}, {1}}}

	// batch 0 is per-edge Ingest, otherwise IngestBatch in batches of it.
	for _, tc := range []struct {
		full   bool
		batch  int
		stored int64
	}{
		{false, 0, 4}, {false, 1, 4}, {false, 2, 4}, {false, len(edges), 4},
		{true, 0, 5}, {true, 1, 5}, {true, 2, 5}, {true, len(edges), 5},
	} {
		t.Run(fmt.Sprintf("full=%v/batch=%d", tc.full, tc.batch), func(t *testing.T) {
			r := New(Config{Shards: 2, Window: 64, FullReplicas: tc.full})
			if err := r.Register("q", q, cfg); err != nil {
				t.Fatal(err)
			}
			if err := r.Register("gre", query.NewPath(query.Wildcard, "GRE", "GRE"), cfg); err != nil {
				t.Fatal(err)
			}
			if l := layout(r); len(l) != 2 {
				t.Fatalf("layout %v: want q and gre on slots of their own", l)
			}
			var mu sync.Mutex
			var got []string
			done := make(chan struct{})
			go func() {
				defer close(done)
				r.Drain(func(m Match) {
					var bindings, bound []string
					for _, b := range m.Bindings {
						bindings = append(bindings, refmatch.BindingKey(b.QueryVertex, b.DataVertex))
					}
					for _, e := range m.Edges {
						bound = append(bound, refmatch.EdgeKey(e.QueryEdge, e.Src, e.Dst, e.Type, e.TS))
					}
					mu.Lock()
					got = append(got, refmatch.Key(m.Query, bindings, bound))
					mu.Unlock()
				})
			}()
			for chunk := range slices.Chunk(edges, max(tc.batch, 1)) {
				if tc.batch == 0 {
					r.Ingest(chunk[0])
				} else {
					r.IngestBatch(chunk)
				}
			}
			r.Close()
			<-done
			stats := r.Stats()

			if len(got) != 0 {
				t.Errorf("sharded tier reports %q, want nothing (h1 keeps its first label while live)", got)
			}
			if st := stats[ownerSlot(r, "q")]; st.ReplicaStored != tc.stored {
				t.Errorf("q's replica stored %d edges, want %d", st.ReplicaStored, tc.stored)
			}
		})
	}
}
