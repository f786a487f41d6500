package core

import (
	"fmt"
	"testing"

	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/sjtree"
	"streamgraph/internal/stream"
)

// driftStream produces a stream whose selectivity order flips halfway:
// first phase "x" is rare and "y" common; second phase the reverse.
func driftStream(n int) []stream.Edge {
	var out []stream.Edge
	ts := int64(0)
	emit := func(tp string, i int) {
		ts++
		out = append(out, edge(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), tp, ts))
	}
	for i := 0; i < n/2; i++ {
		if i%10 == 0 {
			emit("x", i)
		} else {
			emit("y", i)
		}
	}
	for i := n / 2; i < n; i++ {
		if i%10 == 0 {
			emit("y", i)
		} else {
			emit("x", i)
		}
	}
	return out
}

func TestAdaptiveRedecomposes(t *testing.T) {
	edges := driftStream(4000)
	// Chain the stream so the query can match: overwrite endpoints to
	// form x->y chains occasionally.
	for i := 0; i+1 < len(edges); i += 50 {
		edges[i].Src = fmt.Sprintf("c%d", i)
		edges[i].Dst = fmt.Sprintf("s%d", i)
		edges[i+1].Src = fmt.Sprintf("s%d", i)
		edges[i+1].Dst = fmt.Sprintf("d%d", i)
		edges[i].Type = "x"
		edges[i+1].Type = "y"
	}
	q := query.NewPath(query.Wildcard, "x", "y")

	// Train on the first phase only: "x" looks rare.
	training := collect(edges[:500])
	eng, err := New(q, Config{
		Strategy: StrategySingleLazy,
		Stats:    training,
		Adaptive: &AdaptiveConfig{RecomputeEvery: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	initialLeaves := eng.Tree().LeafSets()

	matches := 0
	for _, se := range edges {
		matches += len(eng.ProcessEdge(se))
	}
	st := eng.AdaptiveStats()
	if st.Recomputes == 0 {
		t.Fatalf("no recomputes recorded: %+v", st)
	}
	if st.Migrations == 0 {
		t.Fatalf("selectivity flip should force at least one migration: %+v", st)
	}
	finalLeaves := eng.Tree().LeafSets()
	if sameLeaves(initialLeaves, finalLeaves) {
		t.Fatalf("leaf order unchanged after drift: %v", finalLeaves)
	}
	if matches == 0 {
		t.Fatalf("no matches found during adaptive run")
	}
}

func TestAdaptiveMatchesNonAdaptive(t *testing.T) {
	// Adaptivity must not lose matches that complete after a migration:
	// compare against a non-adaptive engine on the same stream. Matches
	// whose parts straddle a migration AND were only partially stored
	// may be rediscovered lazily, so we compare against the full
	// non-lazy reference.
	edges := driftStream(3000)
	for i := 0; i+1 < len(edges); i += 40 {
		edges[i].Src = fmt.Sprintf("c%d", i)
		edges[i].Dst = fmt.Sprintf("s%d", i)
		edges[i+1].Src = fmt.Sprintf("s%d", i)
		edges[i+1].Dst = fmt.Sprintf("d%d", i)
		edges[i].Type = "x"
		edges[i+1].Type = "y"
	}
	q := query.NewPath(query.Wildcard, "x", "y")
	stats := collect(edges[:500])

	ref, err := New(q, Config{Strategy: StrategySingle, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := New(q, Config{
		Strategy: StrategySingle, Stats: stats,
		Adaptive: &AdaptiveConfig{RecomputeEvery: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	refMatches, adMatches := 0, 0
	for _, se := range edges {
		refMatches += len(ref.ProcessEdge(se))
		adMatches += len(ad.ProcessEdge(se))
	}
	if refMatches != adMatches {
		t.Fatalf("adaptive %d matches vs reference %d", adMatches, refMatches)
	}
	if ad.AdaptiveStats().Migrations == 0 {
		t.Skipf("no migration triggered; nothing exercised")
	}
}

// TestAdaptiveBatchMatchesSerial pins the batch wiring for adaptive
// engines: ProcessBatch must reproduce the serial ProcessEdge schedule
// — per-edge match sets AND the adaptive recompute/migration counters —
// for batch sizes that straddle, hit exactly, and subdivide the
// recompute period.
func TestAdaptiveBatchMatchesSerial(t *testing.T) {
	edges := driftStream(3000)
	for i := 0; i+1 < len(edges); i += 40 {
		edges[i].Src = fmt.Sprintf("c%d", i)
		edges[i].Dst = fmt.Sprintf("s%d", i)
		edges[i+1].Src = fmt.Sprintf("s%d", i)
		edges[i+1].Dst = fmt.Sprintf("d%d", i)
		edges[i].Type = "x"
		edges[i+1].Type = "y"
	}
	q := query.NewPath(query.Wildcard, "x", "y")
	stats := collect(edges[:500])

	newAdaptive := func() *Engine {
		eng, err := New(q, Config{
			Strategy: StrategySingleLazy, Stats: stats, Window: 600,
			Adaptive: &AdaptiveConfig{RecomputeEvery: 400},
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	serial := newAdaptive()
	var want [][]string
	for _, se := range edges {
		want = appendEdgeSigs(serial, want, serial.ProcessEdge(se))
	}
	wantStats := serial.AdaptiveStats()
	if wantStats.Recomputes == 0 || wantStats.Migrations == 0 {
		t.Fatalf("serial run exercised no re-decomposition: %+v", wantStats)
	}
	total := 0
	for _, sigs := range want {
		total += len(sigs)
	}
	if total == 0 {
		t.Fatal("no matches; differential is vacuous")
	}

	// 400 lands recomputes exactly on batch boundaries; 256 and 77
	// straddle them; 512 spans more than one period per batch.
	for _, bs := range []int{77, 256, 400, 512} {
		batched := newAdaptive()
		var got [][]string
		for lo := 0; lo < len(edges); lo += bs {
			hi := lo + bs
			if hi > len(edges) {
				hi = len(edges)
			}
			for _, ms := range batched.ProcessBatch(edges[lo:hi]) {
				got = appendEdgeSigs(batched, got, ms)
			}
		}
		comparePerEdge(t, fmt.Sprintf("adaptive batch=%d vs serial", bs), got, want)
		// The decision points must line up exactly. Migrated may exceed
		// the serial count: the batch path's amortized eviction (cutoff
		// taken before the batch) legitimately keeps a few more partials
		// alive at migration time — same slack the non-adaptive batch
		// path documents for out-of-order eviction.
		gs := batched.AdaptiveStats()
		if gs.Recomputes != wantStats.Recomputes || gs.Migrations != wantStats.Migrations {
			t.Fatalf("batch=%d adaptive decisions diverge: %+v vs serial %+v", bs, gs, wantStats)
		}
		if gs.Migrated < wantStats.Migrated {
			t.Fatalf("batch=%d migrated %d partials, serial migrated %d — batch must keep a superset",
				bs, gs.Migrated, wantStats.Migrated)
		}
	}
}

func TestAdaptiveStatsZeroWhenDisabled(t *testing.T) {
	q := query.NewPath(query.Wildcard, "x")
	eng, err := New(q, Config{Strategy: StrategyVF2})
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.AdaptiveStats(); st.Recomputes != 0 {
		t.Fatalf("adaptive stats nonzero when disabled: %+v", st)
	}
}

func TestProjectSkipsEvictedEdges(t *testing.T) {
	q := query.NewPath(query.Wildcard, "x", "y")
	stats := collect([]stream.Edge{edge("a", "b", "x", 1), edge("b", "c", "y", 2)})
	eng, err := New(q, Config{Strategy: StrategySingle, Stats: stats, Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	eng.ProcessEdge(edge("a", "b", "x", 1))
	// Record a stored match, then advance time far enough to evict the
	// edge, and verify projection fails cleanly.
	var stored bool
	eng.tree.EachStored(func(_ *sjtree.Node, m iso.Match) bool {
		if _, ok := eng.project(m, []int{0}); !ok {
			t.Errorf("projection should succeed while edge is live")
		}
		stored = true
		return true
	})
	if !stored {
		t.Fatalf("no stored match to project")
	}
	eng.ProcessEdge(edge("zz", "ww", "x", 1000)) // evicts ts=1
	eng.tree.EachStored(func(_ *sjtree.Node, m iso.Match) bool {
		// The old match was evicted from the table too; any remaining
		// entries must still project.
		_, _ = eng.project(m, []int{0})
		return true
	})
}
