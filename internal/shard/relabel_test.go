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
// in the filtered sharded tier, on the stream of core's
// TestLiveRelabelDifferential (window 10, a sweep every 4 edges): h1
// enters as a server, its edge expires, and before the serial engine
// sweeps it h1 re-appears claiming "client". The serial engine keeps
// h1's first label and reports nothing; unfiltered batches whose
// boundary puts a sweep in that gap report h1>h3>h4 (core's test). A
// filtered replica agrees with the serial engine under every ingest
// shape: "q" owns a slot of its own, whose replica admits only TCP and
// UDP, so the GRE edge never reaches its sweep clock and its first
// sweep (before the 4th edge it admits, h3>h4) finds h1 live again.
// FullReplicas diverges exactly as core's batch path does, per-edge
// Ingest included: a worker runs every message, one edge or many,
// through the batch path, which sweeps before it ingests.
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
		edge("h1", "server", "h2", "server", "UDP", 1),  // h1 enters as a server
		edge("x", "client", "y", "server", "GRE", 20),   // h1's edge leaves the window
		edge("u", "server", "w", "server", "UDP", 21),   // (a type the query holds)
		edge("h1", "client", "h3", "server", "TCP", 22), // h1, expired but not swept, claims client
		edge("h3", "server", "h4", "server", "UDP", 23), // completes h1>h3>h4 iff h1 is a client
	}
	const relabeled = "q|a=h1,b=h3,c=h4|0:h1>h3:TCP@22,1:h3>h4:UDP@23"
	cfg := core.Config{Strategy: core.StrategySingleLazy, Leaves: [][]int{{0}, {1}}}

	// batch 0 is per-edge Ingest, otherwise IngestBatch in batches of it.
	for _, tc := range []struct {
		full   bool
		batch  int
		want   []string
		stored int64
	}{
		{false, 0, nil, 4}, {false, 1, nil, 4}, {false, 2, nil, 4}, {false, len(edges), nil, 4},
		{true, 0, []string{relabeled}, 5}, {true, 1, []string{relabeled}, 5}, {true, 2, []string{relabeled}, 5}, {true, len(edges), nil, 5},
	} {
		t.Run(fmt.Sprintf("full=%v/batch=%d", tc.full, tc.batch), func(t *testing.T) {
			r := New(Config{Shards: 2, Window: 10, EvictEvery: 4, FullReplicas: tc.full})
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

			if !slices.Equal(got, tc.want) {
				t.Errorf("sharded tier reports %q, want %q", got, tc.want)
			}
			if st := stats[ownerSlot(r, "q")]; st.ReplicaStored != tc.stored {
				t.Errorf("q's replica stored %d edges, want %d", st.ReplicaStored, tc.stored)
			}
		})
	}
}
