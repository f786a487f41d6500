package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

func TestMultiEngineTwoQueries(t *testing.T) {
	m := NewMulti(MultiConfig{Window: 1000})
	qa := query.NewPath(query.Wildcard, "rdp", "ftp")
	qb := query.NewPath(query.Wildcard, "syn")

	// Trained statistics so decomposition has data.
	var train []stream.Edge
	for i, tp := range []string{"rdp", "ftp", "syn", "http", "http"} {
		train = append(train, edge(fmt.Sprintf("w%d", i), fmt.Sprintf("w%d", i+100), tp, int64(i+1)))
	}
	stats := collect(train)
	if err := m.Register("lateral", qa, Config{Strategy: StrategySingleLazy, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("flood", qb, Config{Strategy: StrategySingle, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("lateral", qa, Config{Strategy: StrategySingle}); err == nil {
		t.Fatalf("duplicate registration accepted")
	}
	if got := m.Registered(); len(got) != 2 || got[0] != "lateral" {
		t.Fatalf("Registered = %v", got)
	}

	edges := []stream.Edge{
		edge("a", "b", "rdp", 10),
		edge("b", "c", "ftp", 11),
		edge("x", "y", "syn", 12),
	}
	byQuery := map[string]int{}
	for _, se := range edges {
		for _, nm := range m.ProcessEdge(se) {
			byQuery[nm.Query]++
		}
	}
	if byQuery["lateral"] != 1 {
		t.Errorf("lateral matches = %d, want 1", byQuery["lateral"])
	}
	if byQuery["flood"] != 1 {
		t.Errorf("flood matches = %d, want 1", byQuery["flood"])
	}
	st := m.Stats()
	if st.EdgesProcessed != 3 || st.Queries != 2 {
		t.Errorf("stats = %+v", st)
	}
	if m.Graph().NumEdges() != 3 {
		t.Errorf("shared graph edges = %d", m.Graph().NumEdges())
	}
}

func TestMultiEngineMatchesSingleEngines(t *testing.T) {
	// Each query through the MultiEngine reports exactly the matches a
	// standalone engine reports on the same stream.
	edges := []stream.Edge{
		edge("a", "b", "x", 1),
		edge("b", "c", "y", 2),
		edge("c", "d", "x", 3),
		edge("d", "e", "y", 4),
		edge("a", "e", "z", 5),
	}
	stats := collect(edges)
	q1 := query.NewPath(query.Wildcard, "x", "y")
	q2 := query.NewPath(query.Wildcard, "z")

	solo1 := runStrategy(t, q1, edges, StrategyPathLazy, 0, stats)
	solo2 := runStrategy(t, q2, edges, StrategySingle, 0, stats)

	m := NewMulti(MultiConfig{})
	if err := m.Register("p", q1, Config{Strategy: StrategyPathLazy, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("z", q2, Config{Strategy: StrategySingle, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, se := range edges {
		for _, nm := range m.ProcessEdge(se) {
			counts[nm.Query]++
		}
	}
	if counts["p"] != len(solo1) {
		t.Errorf("multi p = %d, solo = %d", counts["p"], len(solo1))
	}
	if counts["z"] != len(solo2) {
		t.Errorf("multi z = %d, solo = %d", counts["z"], len(solo2))
	}
}

func TestMultiEngineUnregister(t *testing.T) {
	m := NewMulti(MultiConfig{})
	q := query.NewPath(query.Wildcard, "t")
	stats := collect([]stream.Edge{edge("a", "b", "t", 1)})
	if err := m.Register("q", q, Config{Strategy: StrategySingle, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	m.Unregister("q")
	m.Unregister("missing") // no-op
	if got := m.ProcessEdge(edge("a", "b", "t", 2)); len(got) != 0 {
		t.Fatalf("unregistered query still matching: %v", got)
	}
	if len(m.Registered()) != 0 {
		t.Fatalf("Registered = %v", m.Registered())
	}
}

// TestQueryEngineDrivenDirectly: a query engine of a shared MultiEngine
// has no host to ingest into, so driving it directly panics with the
// MultiEngine call to make instead, not with a nil dereference.
func TestQueryEngineDrivenDirectly(t *testing.T) {
	m := NewMulti(MultiConfig{Window: 100})
	q := query.NewPath(query.Wildcard, "t")
	stats := collect([]stream.Edge{edge("a", "b", "t", 1)})
	if err := m.Register("q", q, Config{Strategy: StrategySingle, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	e := m.QueryEngine("q")
	for call, drive := range map[string]func(){
		"ProcessEdge":  func() { e.ProcessEdge(edge("a", "b", "t", 2)) },
		"ProcessBatch": func() { e.ProcessBatch([]stream.Edge{edge("a", "b", "t", 2)}) },
	} {
		func() {
			defer func() {
				want := "call MultiEngine." + call
				if msg, _ := recover().(string); !strings.HasSuffix(msg, want) {
					t.Errorf("Engine.%s on a query engine: panic %q, want one ending %q", call, msg, want)
				}
			}()
			drive()
		}()
	}
	if got := m.ProcessEdge(edge("a", "b", "t", 3)); len(got) != 1 {
		t.Fatalf("the MultiEngine after the refused calls: %d matches, want 1", len(got))
	}
}

func TestMultiEngineLateRegistration(t *testing.T) {
	// Plain registration starts from the registration point: a pattern
	// whose prefix predates it is missed by tree strategies.
	m := NewMulti(MultiConfig{Window: 1000})
	m.ProcessEdge(edge("a", "b", "x", 1)) // before registration
	q := query.NewPath(query.Wildcard, "x", "y")
	if err := m.Register("late", q, Config{Strategy: StrategySingle}); err != nil {
		t.Fatal(err)
	}
	if got := m.ProcessEdge(edge("b", "c", "y", 2)); len(got) != 0 {
		t.Fatalf("plain Register should not see pre-registration prefixes, got %d", len(got))
	}

	// Backfill replays the live graph: the same scenario now matches.
	m2 := NewMulti(MultiConfig{Window: 1000})
	m2.ProcessEdge(edge("a", "b", "x", 1))
	initial, err := m2.RegisterWithBackfill("late", q, Config{Strategy: StrategySingle})
	if err != nil {
		t.Fatal(err)
	}
	if len(initial) != 0 {
		t.Fatalf("no complete match exists yet, initial = %d", len(initial))
	}
	if got := m2.ProcessEdge(edge("b", "c", "y", 2)); len(got) != 1 {
		t.Fatalf("backfilled query found %d matches, want 1", len(got))
	}

	// Backfill also reports matches already complete in the graph.
	m3 := NewMulti(MultiConfig{Window: 1000})
	m3.ProcessEdge(edge("a", "b", "x", 1))
	m3.ProcessEdge(edge("b", "c", "y", 2))
	initial, err = m3.RegisterWithBackfill("late", q, Config{Strategy: StrategySingle})
	if err != nil {
		t.Fatal(err)
	}
	if len(initial) != 1 {
		t.Fatalf("backfill found %d complete matches, want 1", len(initial))
	}
}

func TestMultiEngineEviction(t *testing.T) {
	m := NewMulti(MultiConfig{Window: 10})
	q := query.NewPath(query.Wildcard, "t", "t")
	stats := collect([]stream.Edge{edge("a", "b", "t", 1), edge("b", "c", "t", 2)})
	if err := m.Register("q", q, Config{Strategy: StrategySingleLazy, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	for ts := int64(1); ts <= 200; ts++ {
		m.ProcessEdge(edge(fmt.Sprintf("v%d", ts), fmt.Sprintf("v%d", ts+1), "t", ts))
	}
	if n := m.Graph().NumEdges(); n > 15 {
		t.Errorf("shared graph holds %d edges with window 10", n)
	}
	if st := m.Stats(); st.PartialMatches > 30 {
		t.Errorf("partials = %d with window 10", st.PartialMatches)
	}
}

// TestMultiEngineStatisticsOnDemand: a registration that brings neither
// Config.Leaves nor Config.Stats is decomposed from the statistics of
// the window at that moment — past-window edges awaiting a sweep left
// out, a later registration seeing a later window. Nothing on an ingest
// path feeds a collector: Statistics counts the window, not the stream.
func TestMultiEngineStatisticsOnDemand(t *testing.T) {
	m := NewMulti(MultiConfig{Window: 10})
	q := query.NewPath(query.Wildcard, "x", "y")
	if err := m.Register("cold", q, Config{Strategy: StrategySingleLazy}); err != nil {
		t.Fatalf("a cold registration decomposes from empty statistics: %v", err)
	}

	// x is frequent early, y frequent late. The late edges come in one
	// batch, which sweeps before it ingests, from the clock before it: the
	// early edges stay in the graph after they left the window.
	for i := 0; i < 20; i++ {
		m.ProcessEdge(edge(fmt.Sprintf("s%d", i), fmt.Sprintf("d%d", i), "x", 1))
	}
	m.ProcessBatch([]stream.Edge{edge("e", "f", "y", 1)})
	leavesOf := func(name string) [][]int {
		t.Helper()
		if err := m.Register(name, q, Config{Strategy: StrategySingleLazy}); err != nil {
			t.Fatal(err)
		}
		return m.QueryEngine(name).Tree().LeafSets()
	}
	if got := leavesOf("early"); !reflect.DeepEqual(got, [][]int{{1}, {0}}) {
		t.Fatalf("with y rare in the window the leaves are %v, want y first", got)
	}
	late := make([]stream.Edge, 5)
	for i := range late {
		late[i] = edge(fmt.Sprintf("u%d", i), fmt.Sprintf("v%d", i), "y", 20)
	}
	m.ProcessBatch(late)
	m.Backfill([]stream.Edge{edge("g", "h", "x", 19)})
	if m.Graph().NumEdges() != 27 {
		t.Fatalf("the graph holds %d edges, want all 27 unswept", m.Graph().NumEdges())
	}
	if st := m.Statistics(); st.EdgeTotal() != 6 || st.EdgeFrequency("x") != 1 || st.EdgeFrequency("y") != 5 {
		t.Fatalf("Statistics counts %d edges (x %d, y %d), want the window's 6 (1, 5), not the graph's 27",
			st.EdgeTotal(), st.EdgeFrequency("x"), st.EdgeFrequency("y"))
	}
	if got := leavesOf("late"); !reflect.DeepEqual(got, [][]int{{0}, {1}}) {
		t.Fatalf("with x rare in the window the leaves are %v, want x first", got)
	}
}

// TestMultiEngineRegistrationsMatch: however a query got its
// decomposition, it matches like any other.
func TestMultiEngineRegistrationsMatch(t *testing.T) {
	m := NewMulti(MultiConfig{Window: 1000})
	q := query.NewPath(query.Wildcard, "x", "y")
	stats := collect([]stream.Edge{edge("a", "b", "x", 1), edge("b", "c", "y", 2)})
	for name, cfg := range map[string]Config{
		"baseline": {Strategy: StrategyIncIso},
		"pinned":   {Strategy: StrategySingleLazy, Leaves: [][]int{{0}, {1}}},
		"stats":    {Strategy: StrategyPathLazy, Stats: stats},
		"window":   {Strategy: StrategySingleLazy},
	} {
		if err := m.Register(name, q, cfg); err != nil {
			t.Fatal(err)
		}
	}
	m.Backfill([]stream.Edge{edge("p", "q", "z", 1)})
	m.ProcessEdge(edge("a", "b", "x", 2))
	got := m.ProcessBatch([]stream.Edge{edge("b", "c", "y", 3)})
	if len(got) != 4 {
		t.Fatalf("got %d matches, want one per registered query", len(got))
	}
}
