package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"streamgraph/internal/datagen"
	"streamgraph/internal/graph"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

func batchTestQueries() map[string]*query.Graph {
	return map[string]*query.Graph{
		"gre-tcp":  query.NewPath(query.Wildcard, "GRE", "TCP"),
		"udp-icmp": query.NewPath("ip", "UDP", "ICMP"),
		"tcp-fan": {
			Vertices: []query.Vertex{
				{Name: "a", Label: "ip"}, {Name: "b", Label: "ip"}, {Name: "c", Label: "ip"},
			},
			Edges: []query.Edge{
				{Src: 0, Dst: 1, Type: "TCP"},
				{Src: 0, Dst: 2, Type: "UDP"},
			},
		},
	}
}

func batchTestStream() []stream.Edge {
	return datagen.Netflow(datagen.NetflowConfig{Seed: 21, Edges: 1500, Hosts: 180})
}

// registerBatchQueries registers the test queries under deterministic
// names.
func registerBatchQueries(t *testing.T, r *MultiEngine, strategies map[string]Strategy, train []stream.Edge) {
	t.Helper()
	stats := collect(train)
	queries := batchTestQueries()
	names := make([]string, 0, len(queries))
	for name := range queries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := r.Register(name, queries[name], Config{Strategy: strategies[name], Stats: stats}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
}

// nmSig renders a named match by its bound data edges.
func nmSig(m *MultiEngine, nm NamedMatch) string {
	g := m.Graph()
	s := nm.Query + "|"
	for qe, de := range nm.Match.EdgeOf {
		e, ok := g.Edge(de)
		if !ok {
			continue
		}
		s += fmt.Sprintf("%d:%s>%s@%d;", qe, g.VertexName(e.Src), g.VertexName(e.Dst), e.TS)
	}
	return s
}

func batchStrategyMix() map[string]Strategy {
	return map[string]Strategy{
		"gre-tcp":  StrategySingleLazy,
		"udp-icmp": StrategyPath,
		"tcp-fan":  StrategySingle,
	}
}

// TestMultiBatchMatchesSerial compares a MultiEngine driven edge-at-a-
// time against one driven with ProcessBatch: the complete (query,
// match) multisets must be identical.
func TestMultiBatchMatchesSerial(t *testing.T) {
	edges := batchTestStream()
	train := edges[:300]

	run := func(batch int) []string {
		m := NewMulti(MultiConfig{Window: 400})
		registerBatchQueries(t, m, batchStrategyMix(), train)
		var sigs []string
		if batch <= 1 {
			for _, se := range edges {
				for _, nm := range m.ProcessEdge(se) {
					sigs = append(sigs, nm.Query+"|"+nmSig(m, nm))
				}
			}
		} else {
			for lo := 0; lo < len(edges); lo += batch {
				hi := lo + batch
				if hi > len(edges) {
					hi = len(edges)
				}
				for _, nm := range m.ProcessBatch(edges[lo:hi]) {
					sigs = append(sigs, nm.Query+"|"+nmSig(m, nm))
				}
			}
		}
		sort.Strings(sigs)
		return sigs
	}

	want := run(1)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; comparison is vacuous")
	}
	for _, batch := range []int{2, 64, 512} {
		got := run(batch)
		if !equalStrings(got, want) {
			t.Fatalf("batch=%d multiset differs: %d matches vs %d", batch, len(got), len(want))
		}
	}
}

// TestBatchOutOfOrderSuperset pins the documented contract for
// out-of-order timestamps: when a timestamp regresses by more than the
// window across a serial sweep, the serial schedule has already lost the
// old edge to the sweep, while the batch path, which sweeps before it
// ingests, keeps it — so per edge, batch matches are a window-valid
// SUPERSET of serial matches, never fewer.
// With non-decreasing timestamps the differential tests above require
// exact equality instead.
func TestBatchOutOfOrderSuperset(t *testing.T) {
	const window = 10
	q := query.NewPath(query.Wildcard, "a", "b")
	edges := []stream.Edge{
		edge("x", "y", "a", 0),
		edge("p", "q", "c", 100), // unrelated type; moves the sweep clock past the window
		edge("y", "z", "b", 1),   // late arrival: spans [0,1] with the first edge, inside the window
	}
	stats := collect(edges)
	for _, s := range []Strategy{StrategySingle, StrategySingleLazy, StrategyPath, StrategyVF2} {
		serial := runSerialPerEdge(t, q, edges, s, window, stats)
		eng, err := New(q, Config{Strategy: s, Window: window, Stats: stats})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		var batch [][]string
		for _, ms := range eng.ProcessBatch(edges) {
			batch = appendEdgeSigs(eng, batch, ms)
		}
		var nSerial, nBatch int
		for i := range edges {
			nSerial += len(serial[i])
			nBatch += len(batch[i])
			for _, sig := range serial[i] {
				found := false
				for _, bsig := range batch[i] {
					if sig == bsig {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%v: edge %d: serial match %q missing from batch set %v", s, i, sig, batch[i])
				}
			}
		}
		// The serial run loses the out-of-order pair to the sweep at
		// ts=100, while the batch run keeps it.
		if nBatch < nSerial {
			t.Fatalf("%v: batch found %d matches, serial %d — batch must be a superset", s, nBatch, nSerial)
		}
	}

	// The sharp version of the scenario: the serial sweep between the
	// ts=100 and ts=1 arrivals evicts the ts=0 edge. Serial finds
	// nothing; batch finds the window-valid pair.
	serialEng, err := New(q, Config{Strategy: StrategySingle, Window: window, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	var nSerial int
	for _, se := range edges {
		nSerial += len(serialEng.ProcessEdge(se))
	}
	batchEng, err := New(q, Config{Strategy: StrategySingle, Window: window, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	var nBatch int
	var maxSpan int64
	for _, ms := range batchEng.ProcessBatch(edges) {
		nBatch += len(ms)
		for _, m := range ms {
			if sp := m.Span(); sp > maxSpan {
				maxSpan = sp
			}
		}
	}
	if nSerial != 0 {
		t.Fatalf("serial run found %d matches; eviction slack should have dropped the pair", nSerial)
	}
	if nBatch != 1 {
		t.Fatalf("batch run found %d matches, want the 1 window-valid pair", nBatch)
	}
	if maxSpan >= window {
		t.Fatalf("batch reported an out-of-window match (span %d >= %d)", maxSpan, window)
	}
}

// TestBatchEvictionProperty is the quick-check property for window
// maintenance: after streaming the same random workload, a batch run
// followed by one eviction sweep must leave exactly the live edges a
// serial edge-at-a-time run (plus its own sweep) keeps.
func TestBatchEvictionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	liveSet := func(g *graph.Graph) []string {
		var out []string
		g.EachEdgeArrival(func(de graph.Edge) bool {
			out = append(out, fmt.Sprintf("%s>%s:%d@%d#%d",
				g.VertexName(de.Src), g.VertexName(de.Dst), de.Type, de.TS, de.Seq))
			return true
		})
		sort.Strings(out)
		return out
	}
	for trial := 0; trial < 25; trial++ {
		gcfg := genConfig{
			nVerts: 10 + rng.Intn(30),
			nEdges: 100 + rng.Intn(300),
			types:  []string{"a", "b", "c"},
		}
		edges := randomStream(rng, gcfg)
		window := int64(20 + rng.Intn(100))
		q := query.NewPath(query.Wildcard, "a", "b")
		stats := collect(edges)

		serial, err := New(q, Config{Strategy: StrategySingle, Window: window, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		for _, se := range edges {
			serial.ProcessEdge(se)
		}
		serial.host.ForceEvict()

		batched, err := New(q, Config{Strategy: StrategySingle, Window: window, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		bs := 1 + rng.Intn(64)
		for lo := 0; lo < len(edges); lo += bs {
			hi := lo + bs
			if hi > len(edges) {
				hi = len(edges)
			}
			batched.ProcessBatch(edges[lo:hi])
		}
		batched.host.ForceEvict()

		got, want := liveSet(batched.Graph()), liveSet(serial.Graph())
		if !equalStrings(got, want) {
			t.Fatalf("trial %d (window=%d batch=%d): batch leaves %d edges, serial %d\n got %v\nwant %v",
				trial, window, bs, len(got), len(want), got, want)
		}
	}
}
