package persist

import (
	"bytes"
	"fmt"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/datagen"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

func testStream(n int) []stream.Edge {
	return datagen.Netflow(datagen.NetflowConfig{Edges: n, Hosts: 60, Seed: 41})
}

func testQuery(t testing.TB) *query.Graph {
	t.Helper()
	q, err := query.Parse(`
		e a b TCP
		e b c UDP
		e c d ICMP
	`)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func stats(edges []stream.Edge) *selectivity.Collector {
	c := selectivity.NewCollector()
	c.AddAll(edges)
	return c
}

// sig canonicalizes a match by vertex names and edge timestamps so it
// can be compared across engine instances.
func sig(eng *core.Engine, m iso.Match) string {
	g := eng.Graph()
	s := ""
	for qe, de := range m.EdgeOf {
		e, ok := g.Edge(de)
		if !ok {
			continue
		}
		s += fmt.Sprintf("%d:%s>%s@%d;", qe, g.VertexName(e.Src), g.VertexName(e.Dst), e.TS)
	}
	return s
}

func collect(eng *core.Engine, edges []stream.Edge) map[string]bool {
	out := map[string]bool{}
	for _, e := range edges {
		for _, m := range eng.ProcessEdge(e) {
			out[sig(eng, m)] = true
		}
	}
	return out
}

func snapshotRoundTrip(t *testing.T, eng *core.Engine) (*core.Engine, []iso.Match) {
	t.Helper()
	var buf bytes.Buffer
	flushed, err := Save(&buf, eng)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return restored, flushed
}

func TestRestartEquivalenceUnwindowed(t *testing.T) {
	edges := testStream(3000)
	c := stats(edges)
	q := testQuery(t)
	for _, strat := range []core.Strategy{
		core.StrategySingle, core.StrategySingleLazy,
		core.StrategyPath, core.StrategyPathLazy,
	} {
		t.Run(strat.String(), func(t *testing.T) {
			for _, cut := range []int{1, 500, 1500, 2999} {
				cfg := core.Config{Strategy: strat, Stats: c}

				ref, err := core.New(q, cfg)
				if err != nil {
					t.Fatal(err)
				}
				refPrefix := collect(ref, edges[:cut])
				refSuffix := collect(ref, edges[cut:])

				snap, err := core.New(q, cfg)
				if err != nil {
					t.Fatal(err)
				}
				snapPrefix := collect(snap, edges[:cut])
				if len(snapPrefix) != len(refPrefix) {
					t.Fatalf("cut %d: prefix runs diverged before snapshotting", cut)
				}
				restored, flushed := snapshotRoundTrip(t, snap)
				got := map[string]bool{}
				for _, m := range flushed {
					got[sig(restored, m)] = true // flushed matches share no state; sig uses names+ts
				}
				for s := range collect(restored, edges[cut:]) {
					got[s] = true
				}
				if len(got) != len(refSuffix) {
					t.Fatalf("cut %d: restored found %d suffix matches, reference %d",
						cut, len(got), len(refSuffix))
				}
				for s := range refSuffix {
					if !got[s] {
						t.Fatalf("cut %d: restored engine lost match %q", cut, s)
					}
				}
			}
		})
	}
}

func TestRestartWindowedLosesNothing(t *testing.T) {
	edges := testStream(3000)
	c := stats(edges)
	q := testQuery(t)
	const window = 400
	for _, strat := range []core.Strategy{core.StrategySingleLazy, core.StrategyPathLazy} {
		t.Run(strat.String(), func(t *testing.T) {
			cut := 1500
			cfg := core.Config{Strategy: strat, Stats: c, Window: window}

			ref, err := core.New(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			collect(ref, edges[:cut])
			refSuffix := collect(ref, edges[cut:])

			snap, err := core.New(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			collect(snap, edges[:cut])
			restored, flushed := snapshotRoundTrip(t, snap)
			got := map[string]bool{}
			for _, m := range flushed {
				got[sig(restored, m)] = true
				if m.Span() >= window {
					t.Fatalf("flushed match violates window: span %d", m.Span())
				}
			}
			suffix := edges[cut:]
			for _, e := range suffix {
				for _, m := range restored.ProcessEdge(e) {
					if m.Span() >= window {
						t.Fatalf("restored match violates window: span %d", m.Span())
					}
					got[sig(restored, m)] = true
				}
			}
			// The restored engine must not lose any match the reference
			// run reports. (It may additionally report matches that lie
			// entirely in the past near the snapshot cut — the usual
			// eviction-cadence slack — all window-valid, checked above.)
			for s := range refSuffix {
				if !got[s] {
					t.Fatalf("restored engine lost match %q", s)
				}
			}
		})
	}
}

func TestSnapshotRestoresCountersAndDecomposition(t *testing.T) {
	edges := testStream(1200)
	c := stats(edges)
	q := testQuery(t)
	eng, err := core.New(q, core.Config{Strategy: core.StrategyPathLazy, Stats: c, Window: 300})
	if err != nil {
		t.Fatal(err)
	}
	collect(eng, edges[:800])
	wantLeaves := eng.Tree().LeafSets()

	restored, _ := snapshotRoundTrip(t, eng)
	st, rst := eng.Stats(), restored.Stats()
	if rst.EdgesProcessed != st.EdgesProcessed {
		t.Errorf("EdgesProcessed = %d, want %d", rst.EdgesProcessed, st.EdgesProcessed)
	}
	if rst.CompleteMatches != st.CompleteMatches {
		t.Errorf("CompleteMatches = %d, want %d", rst.CompleteMatches, st.CompleteMatches)
	}
	if rst.Tree.Stored != st.Tree.Stored {
		t.Errorf("Tree.Stored = %d, want %d", rst.Tree.Stored, st.Tree.Stored)
	}
	if eng.Graph().NumEdges() != restored.Graph().NumEdges() {
		t.Errorf("NumEdges = %d, want %d", restored.Graph().NumEdges(), eng.Graph().NumEdges())
	}
	gotLeaves := restored.Tree().LeafSets()
	if len(gotLeaves) != len(wantLeaves) {
		t.Fatalf("leaf count %d, want %d", len(gotLeaves), len(wantLeaves))
	}
	for i := range wantLeaves {
		if len(gotLeaves[i]) != len(wantLeaves[i]) {
			t.Fatalf("leaf %d = %v, want %v", i, gotLeaves[i], wantLeaves[i])
		}
		for j := range wantLeaves[i] {
			if gotLeaves[i][j] != wantLeaves[i][j] {
				t.Fatalf("leaf %d = %v, want %v", i, gotLeaves[i], wantLeaves[i])
			}
		}
	}
}

func TestSnapshotVF2Baseline(t *testing.T) {
	edges := testStream(300)
	q := testQuery(t)
	eng, err := core.New(q, core.Config{Strategy: core.StrategyIncIso})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for s := range collect(eng, edges[:200]) {
		want[s] = true
	}
	restored, flushed := snapshotRoundTrip(t, eng)
	if len(flushed) != 0 {
		t.Fatalf("baseline flush produced %d matches, want 0", len(flushed))
	}
	ref, _ := core.New(q, core.Config{Strategy: core.StrategyIncIso})
	collect(ref, edges[:200])
	refSuffix := collect(ref, edges[200:])
	gotSuffix := collect(restored, edges[200:])
	if len(refSuffix) != len(gotSuffix) {
		t.Fatalf("baseline restored: %d suffix matches, want %d", len(gotSuffix), len(refSuffix))
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	edges := testStream(400)
	c := stats(edges)
	q := testQuery(t)
	eng, err := core.New(q, core.Config{Strategy: core.StrategySingleLazy, Stats: c})
	if err != nil {
		t.Fatal(err)
	}
	collect(eng, edges)
	var buf bytes.Buffer
	if _, err := Save(&buf, eng); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte("NOTSNAP!"), good[8:]...)
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[8] = 0xFF
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Fatal("bad version accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, 8, 20, len(good) / 2, len(good) - 1} {
			if _, err := Load(bytes.NewReader(good[:n])); err == nil {
				t.Fatalf("truncation at %d accepted", n)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(nil)); err == nil {
			t.Fatal("empty input accepted")
		}
	})
}

// TestRestoredTreeExpiresIncrementally pins the snapshot path against
// the hashed, time-indexed match-table layout: RestoreStored must
// rebuild each node's expiry index so that window eviction on the
// restored engine is incremental (a no-expiry pass scans nothing) and
// still evicts exactly the restored matches once they age out.
func TestRestoredTreeExpiresIncrementally(t *testing.T) {
	edges := testStream(2000)
	c := stats(edges)
	q := testQuery(t)
	eng, err := core.New(q, core.Config{
		Strategy: core.StrategySingle, Stats: c, Window: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	collect(eng, edges)
	if eng.Tree().StoredMatches() == 0 {
		t.Fatal("test needs live partial matches before the snapshot")
	}

	restored, _ := snapshotRoundTrip(t, eng)
	tree := restored.Tree()
	stored := tree.StoredMatches()
	if stored != eng.Tree().StoredMatches() {
		t.Fatalf("restored %d stored matches, original has %d",
			stored, eng.Tree().StoredMatches())
	}
	// A pass below every restored MinTS must scan no stored match.
	base := tree.Stats().ExpireScanned
	if ev := tree.ExpireBefore(0); ev != 0 {
		t.Fatalf("ExpireBefore(0) evicted %d, want 0", ev)
	}
	if got := tree.Stats().ExpireScanned - base; got != 0 {
		t.Fatalf("no-expiry pass on the restored tree scanned %d matches, want 0", got)
	}
	// A pass beyond every timestamp must drain the restored tables via
	// the rebuilt index.
	last := restored.Graph().LastTS()
	if ev := tree.ExpireBefore(last + 1); ev != stored {
		t.Fatalf("ExpireBefore(max) evicted %d, want all %d restored matches", ev, stored)
	}
	if got := tree.StoredMatches(); got != 0 {
		t.Fatalf("stored = %d after full expiry, want 0", got)
	}
}

// ipEdge is a stream edge between two "ip" vertices.
func ipEdge(src, dst, typ string, ts int64) stream.Edge {
	return stream.Edge{Src: src, SrcLabel: "ip", Dst: dst, DstLabel: "ip", Type: typ, TS: ts}
}

// TestRetroRepairsLapsedStampAfterRestore: a snapshot taken while a
// stamp has lapsed holds a vertex whose leaf matches since the lapse
// are not in the tree. The next enablement after the restore must
// repair them, as it would have in the saved engine, also when its
// timestamp regresses below the lapsed stamp. persist.Save sweeps
// first, which evicts the enabling partial; SaveMulti does not, and the
// multi-engine takes the prefix in one batch, which sweeps before it
// ingests, so the restored engine rebuilds the lapsed stamp from it.
func TestRetroRepairsLapsedStampAfterRestore(t *testing.T) {
	q := query.NewPath(query.Wildcard, "A", "B")
	prefix := []stream.Edge{
		ipEdge("h1", "v", "A", 10),  // enables v until 110
		ipEdge("v", "w1", "B", 109), // stored
		ipEdge("v", "w2", "B", 110), // lapsed: not stored
		ipEdge("v", "w3", "B", 130), // lapsed: not stored
	}
	// h2 joins w1, w2 and w3, arriving in order or 35 late.
	for _, next := range []stream.Edge{ipEdge("h2", "v", "A", 140), ipEdge("h2", "v", "A", 105)} {
		for _, strat := range []core.Strategy{core.StrategySingleLazy, core.StrategyPathLazy} {
			cfg := core.Config{Strategy: strat, Window: 100, Leaves: [][]int{{0}, {1}}}
			newEngine := func() *core.Engine {
				eng, err := core.New(q, cfg)
				if err != nil {
					t.Fatal(err)
				}
				collect(eng, prefix)
				return eng
			}
			want := collect(newEngine(), []stream.Edge{next})
			if len(want) != 3 {
				t.Fatalf("%v: uninterrupted engine reports %d matches at h2@%d, want 3", strat, len(want), next.TS)
			}
			restored, flushed := snapshotRoundTrip(t, newEngine())
			if len(flushed) != 0 {
				t.Fatalf("%v: the flush completed %d matches, want none", strat, len(flushed))
			}
			if got := collect(restored, []stream.Edge{next}); len(got) != len(want) {
				t.Fatalf("%v: engine restored by Load reports %d matches at h2@%d, want %d", strat, len(got), next.TS, len(want))
			}

			m := core.NewMulti(core.MultiConfig{Window: 100})
			if err := m.Register("q", q, cfg); err != nil {
				t.Fatal(err)
			}
			m.ProcessBatch(prefix)
			if m.QueryEngine("q").Tree().Stats().Stored != 2 {
				t.Fatalf("%v: the multi-engine stores %d partials before the save, want h1>v and v>w1", strat, m.QueryEngine("q").Tree().Stats().Stored)
			}
			var buf bytes.Buffer
			if err := SaveMulti(&buf, m); err != nil {
				t.Fatal(err)
			}
			rm, err := LoadMulti(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(rm.ProcessEdge(next)); got != len(want) {
				t.Fatalf("%v: engine restored by LoadMulti reports %d matches at h2@%d, want %d", strat, got, next.TS, len(want))
			}
		}
	}
}

// TestRetroTransplantJoinsOnce: a migration target is a filtered
// replica, whose sweep clock sees only the edges it admits, so it can lag
// its source's and the target can still hold an edge its source has
// evicted. Here the source joined v>w with y>v and then evicted v>w; the
// target, whose filter drops the C edge that moved the source's clock,
// holds v>w and receives y>v with the query's state. The stamps the transplant
// gives v must keep the target from finding v>w again and reporting
// y>v>w a second time — at the drain barrier right after the handoff
// (FlushPending) or at its next edge.
func TestRetroTransplantJoinsOnce(t *testing.T) {
	q := query.NewPath(query.Wildcard, "A", "B")
	cfg := core.Config{Strategy: core.StrategySingleLazy, Leaves: [][]int{{0}, {1}}}
	src := core.NewMulti(core.MultiConfig{Window: 100})
	dst := core.NewMulti(core.MultiConfig{Window: 100})
	dst.SetReplicaFilter([]string{"A", "B"}, false)
	if err := src.Register("q", q, cfg); err != nil {
		t.Fatal(err)
	}
	reported := 0
	for _, se := range []stream.Edge{
		ipEdge("x", "v", "A", 10),  // enables v until 110
		ipEdge("v", "w", "B", 20),  // joins x>v
		ipEdge("y", "v", "A", 30),  // joins v>w; enables v until 130
		ipEdge("p", "q", "C", 121), // the source's sweep evicts x>v and v>w
	} {
		reported += len(src.ProcessEdge(se))
		dst.ProcessEdge(se) // no query yet: the target only keeps its replica
	}
	if reported != 2 {
		t.Fatalf("source reported %d matches, want x>v>w and y>v>w", reported)
	}
	if err := dst.Register("q", q, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := TransplantState(dst, src, "q"); err != nil {
		t.Fatal(err)
	}
	next := ipEdge("r", "s", "C", 122)
	if got := len(src.ProcessEdge(next)) + len(src.FlushPending()); got != 0 {
		t.Fatalf("source reported %d matches after the handoff point, want 0", got)
	}
	if dst.Graph().NumEdges() != 3 {
		t.Fatalf("target holds %d edges, want x>v, v>w and y>v", dst.Graph().NumEdges())
	}
	if got := len(dst.FlushPending()) + len(dst.ProcessEdge(next)) + len(dst.FlushPending()); got != 0 {
		t.Fatalf("target reported %d matches after the transplant, want 0: y>v>w again", got)
	}
}
