package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// replicaStream is a 4-type stream with consistent vertex labels and
// non-decreasing timestamps (the regime the replica-filter exactness
// argument assumes).
func replicaStream(seed int64, n int) []stream.Edge {
	rng := rand.New(rand.NewSource(seed))
	types := []string{"GRE", "TCP", "UDP", "ICMP"}
	edges := make([]stream.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, stream.Edge{
			Src: fmt.Sprintf("n%d", rng.Intn(40)), SrcLabel: "ip",
			Dst: fmt.Sprintf("n%d", rng.Intn(40)), DstLabel: "ip",
			Type: types[rng.Intn(len(types))], TS: int64(i + 1),
		})
	}
	return edges
}

func namedSigs(m *MultiEngine, nms []NamedMatch) []string {
	g := m.Graph()
	var sigs []string
	for _, nm := range nms {
		s := nm.Query
		for qe, eid := range nm.Match.EdgeOf {
			de, ok := g.Edge(eid)
			if !ok {
				continue
			}
			s += fmt.Sprintf("|%d:%s>%s@%d", qe, g.VertexName(de.Src), g.VertexName(de.Dst), de.TS)
		}
		sigs = append(sigs, s)
	}
	return sigs
}

// TestReplicaFilterMatchesUnfiltered pins the tentpole's core claim at
// the engine level: a MultiEngine whose replica filter covers its
// queries' edge-type footprints produces exactly the matches of an
// unfiltered engine, edge for edge, on both the serial and the batch
// ingest path — while storing strictly fewer edges.
func TestReplicaFilterMatchesUnfiltered(t *testing.T) {
	edges := replicaStream(7, 1200)
	queries := map[string]*query.Graph{
		"gre-tcp": query.NewPath(query.Wildcard, "GRE", "TCP"),
		"tcp-tcp": query.NewPath("ip", "TCP", "TCP"),
	}
	strategies := map[string]Strategy{"gre-tcp": StrategySingleLazy, "tcp-tcp": StrategyPath}
	footprint := []string{"GRE", "TCP"} // union over both queries; UDP/ICMP excluded

	run := func(filter bool, batch int) ([]string, int64, int) {
		m := NewMulti(MultiConfig{Window: 300})
		if filter {
			m.SetReplicaFilter(footprint, false)
		}
		for _, name := range []string{"gre-tcp", "tcp-tcp"} {
			if err := m.Register(name, queries[name], Config{Strategy: strategies[name]}); err != nil {
				t.Fatal(err)
			}
		}
		var sigs []string
		if batch <= 1 {
			for _, se := range edges {
				sigs = append(sigs, namedSigs(m, m.ProcessEdge(se))...)
			}
		} else {
			for lo := 0; lo < len(edges); lo += batch {
				hi := lo + batch
				if hi > len(edges) {
					hi = len(edges)
				}
				for _, group := range m.ProcessBatchGrouped(edges[lo:hi]) {
					sigs = append(sigs, namedSigs(m, group)...)
				}
			}
		}
		return sigs, m.EdgesStored(), m.ReplicaView().NumEdges()
	}

	want, fullStored, _ := run(false, 1)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}
	sort.Strings(want)
	for _, batch := range []int{1, 64, 257} {
		got, stored, live := run(true, batch)
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("batch=%d: filtered produced %d matches, unfiltered %d", batch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d: match multiset differs at %d:\n got %s\nwant %s", batch, i, got[i], want[i])
			}
		}
		if stored >= fullStored {
			t.Fatalf("batch=%d: filtered replica stored %d edges, full stores %d — no memory win", batch, stored, fullStored)
		}
		if live < 0 {
			t.Fatalf("batch=%d: bad replica view count %d", batch, live)
		}
	}
}

// TestReplicaBackfillAndTrim exercises the register/unregister replica
// maintenance primitives directly: Backfill admits past edges without
// searching them, and TrimReplica drops exactly the edges outside a
// narrowed filter.
func TestReplicaBackfillAndTrim(t *testing.T) {
	m := NewMulti(MultiConfig{Window: 0})
	m.SetReplicaFilter([]string{"TCP"}, false)
	edges := []stream.Edge{
		{Src: "a", SrcLabel: "ip", Dst: "b", DstLabel: "ip", Type: "TCP", TS: 1},
		{Src: "b", SrcLabel: "ip", Dst: "c", DstLabel: "ip", Type: "UDP", TS: 2},
		{Src: "c", SrcLabel: "ip", Dst: "d", DstLabel: "ip", Type: "TCP", TS: 3},
	}
	for _, se := range edges {
		m.ProcessEdge(se)
	}
	if got := m.Graph().NumEdges(); got != 2 {
		t.Fatalf("filtered ingest stored %d edges, want 2 (TCP only)", got)
	}
	// Widen to {TCP, UDP} and backfill the UDP edge the filter dropped.
	m.SetReplicaFilter([]string{"TCP", "UDP"}, false)
	m.Backfill([]stream.Edge{edges[1]})
	if got := m.Graph().NumEdges(); got != 3 {
		t.Fatalf("after backfill %d edges, want 3", got)
	}
	if got := m.EdgesStored(); got != 3 {
		t.Fatalf("EdgesStored = %d, want 3", got)
	}
	// Narrow back to {TCP}: the trim must drop exactly the UDP edge.
	m.SetReplicaFilter([]string{"TCP"}, false)
	if dropped := m.TrimReplica(); dropped != 1 {
		t.Fatalf("TrimReplica dropped %d edges, want 1", dropped)
	}
	if got, want := m.ReplicaView().NumEdges(), m.Graph().NumEdges(); got != want {
		t.Fatalf("post-trim view count %d != live count %d", got, want)
	}
}

// TestBackfillReachableByLazyRepair pins why backfill is a correctness
// requirement, not an optimization: a lazily-registered query's
// retrospective repair can reach edges that arrived before its
// registration, so a replica that widened its footprint without
// backfilling those edges would silently lose matches an unfiltered
// engine reports.
func TestBackfillReachableByLazyRepair(t *testing.T) {
	old := stream.Edge{Src: "c", SrcLabel: "ip", Dst: "d", DstLabel: "ip", Type: "TCP", TS: 1}
	after := []stream.Edge{
		{Src: "b", SrcLabel: "ip", Dst: "c", DstLabel: "ip", Type: "UDP", TS: 2},
		{Src: "x", SrcLabel: "ip", Dst: "y", DstLabel: "ip", Type: "UDP", TS: 3}, // triggers the retro drain
	}
	q := query.NewPath(query.Wildcard, "UDP", "TCP")

	run := func(backfill bool) int {
		m := NewMulti(MultiConfig{})
		m.SetReplicaFilter([]string{"UDP"}, false)
		m.ProcessEdge(old) // dropped: TCP is outside the current footprint
		m.SetReplicaFilter([]string{"UDP", "TCP"}, false)
		if backfill {
			m.Backfill([]stream.Edge{old})
		}
		if err := m.Register("q", q, Config{Strategy: StrategySingleLazy}); err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, se := range after {
			found += len(m.ProcessEdge(se))
		}
		return found
	}

	// Unfiltered reference: same registration point, full graph.
	ref := NewMulti(MultiConfig{})
	ref.ProcessEdge(old)
	if err := ref.Register("q", q, Config{Strategy: StrategySingleLazy}); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, se := range after {
		want += len(ref.ProcessEdge(se))
	}
	if want == 0 {
		t.Fatal("reference found no match; scenario is vacuous")
	}
	if got := run(true); got != want {
		t.Fatalf("backfilled replica found %d matches, unfiltered reference %d", got, want)
	}
	if got := run(false); got == want {
		t.Fatal("replica without backfill matched the reference — scenario does not exercise backfill")
	}
}
