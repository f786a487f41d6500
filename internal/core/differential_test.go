package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"streamgraph/internal/datagen"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

// The differential net: every strategy — the four selectivity-driven
// decompositions plus the non-incremental VF2 baseline — must report
// the same matches on the same generated workload, edge for edge; and
// the batch ingestion path must reproduce the serial edge-at-a-time
// schedule exactly, for every strategy and several batch sizes.

// diffWorkload is one generated stream plus the queries run against it.
type diffWorkload struct {
	name    string
	edges   []stream.Edge
	queries map[string]*query.Graph
	window  int64
}

func diffWorkloads() []diffWorkload {
	netflow := datagen.Netflow(datagen.NetflowConfig{Seed: 7, Edges: 1200, Hosts: 220})

	treeQ := &query.Graph{
		Vertices: []query.Vertex{
			{Name: "a", Label: "ip"}, {Name: "b", Label: "ip"},
			{Name: "c", Label: "ip"}, {Name: "d", Label: "ip"},
		},
		Edges: []query.Edge{
			{Src: 0, Dst: 1, Type: "TCP"},
			{Src: 1, Dst: 2, Type: "ICMP"},
			{Src: 1, Dst: 3, Type: "UDP"},
		},
	}

	lsbench := datagen.LSBench(datagen.LSBenchConfig{Seed: 11, Edges: 1200, Users: 150})
	socialQ, err := query.Parse(`
		v u user
		v f forum
		v p post
		e u f memberOf
		e u p createsPost
		e p f postedIn
	`)
	if err != nil {
		panic(err)
	}

	return []diffWorkload{
		{
			name:  "netflow",
			edges: netflow,
			queries: map[string]*query.Graph{
				"path2": query.NewPath(query.Wildcard, "GRE", "TCP"),
				"path3": query.NewPath("ip", "UDP", "ICMP", "GRE"),
				"tree3": treeQ,
			},
			window: 150,
		},
		{
			name:  "lsbench",
			edges: lsbench,
			queries: map[string]*query.Graph{
				"social": socialQ,
				"knows2": query.NewPath("user", "knows", "knows"),
			},
			window: 200,
		},
	}
}

// perEdgeSigs canonicalizes per-edge match sets: out[i] is the sorted
// signature list of the matches completed by stream edge i.
func appendEdgeSigs(eng *Engine, out [][]string, ms []iso.Match) [][]string {
	var sigs []string
	for _, m := range ms {
		sigs = append(sigs, signature(eng, m))
	}
	sort.Strings(sigs)
	return append(out, sigs)
}

// runSerialPerEdge streams the workload edge-at-a-time.
func runSerialPerEdge(t *testing.T, q *query.Graph, edges []stream.Edge, s Strategy, window int64, stats *selectivity.Collector) [][]string {
	t.Helper()
	eng, err := New(q, Config{Strategy: s, Window: window, Stats: stats})
	if err != nil {
		t.Fatalf("%v: New: %v", s, err)
	}
	var out [][]string
	for _, se := range edges {
		out = appendEdgeSigs(eng, out, eng.ProcessEdge(se))
	}
	return out
}

// runBatchPerEdge streams the workload through ProcessBatch in chunks.
func runBatchPerEdge(t *testing.T, q *query.Graph, edges []stream.Edge, s Strategy, window int64, stats *selectivity.Collector, batch int) [][]string {
	t.Helper()
	eng, err := New(q, Config{Strategy: s, Window: window, Stats: stats})
	if err != nil {
		t.Fatalf("%v: New: %v", s, err)
	}
	var out [][]string
	for lo := 0; lo < len(edges); lo += batch {
		hi := lo + batch
		if hi > len(edges) {
			hi = len(edges)
		}
		for _, ms := range eng.ProcessBatch(edges[lo:hi]) {
			out = appendEdgeSigs(eng, out, ms)
		}
	}
	return out
}

func comparePerEdge(t *testing.T, label string, got, want [][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges processed, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !equalStrings(got[i], want[i]) {
			t.Fatalf("%s: edge %d match set differs:\n got %v\nwant %v", label, i, got[i], want[i])
		}
	}
}

// TestDifferentialStrategies streams generated netflow and social
// workloads through Single, SingleLazy, Path, PathLazy and the VF2
// baseline and requires identical per-edge match sets.
func TestDifferentialStrategies(t *testing.T) {
	strategies := []Strategy{StrategySingle, StrategySingleLazy, StrategyPath, StrategyPathLazy, StrategyVF2}
	for _, wl := range diffWorkloads() {
		stats := collect(wl.edges)
		for qname, q := range wl.queries {
			want := runSerialPerEdge(t, q, wl.edges, strategies[0], wl.window, stats)
			total := 0
			for _, sigs := range want {
				total += len(sigs)
			}
			if total == 0 {
				t.Errorf("%s/%s: workload produced no matches; differential is vacuous", wl.name, qname)
			}
			for _, s := range strategies[1:] {
				got := runSerialPerEdge(t, q, wl.edges, s, wl.window, stats)
				comparePerEdge(t, fmt.Sprintf("%s/%s: %v vs %v", wl.name, qname, s, strategies[0]), got, want)
			}
		}
	}
}

// TestBatchMatchesSerial reuses the same harness to require
// ProcessBatch ≡ edge-at-a-time Process for every strategy and several
// batch sizes.
func TestBatchMatchesSerial(t *testing.T) {
	batchSizes := []int{1, 3, 16, 128}
	for _, wl := range diffWorkloads() {
		stats := collect(wl.edges)
		for qname, q := range wl.queries {
			for _, s := range allStrategies() {
				want := runSerialPerEdge(t, q, wl.edges, s, wl.window, stats)
				for _, bs := range batchSizes {
					got := runBatchPerEdge(t, q, wl.edges, s, wl.window, stats, bs)
					comparePerEdge(t, fmt.Sprintf("%s/%s/%v: batch=%d vs serial", wl.name, qname, s, bs), got, want)
				}
			}
		}
	}
}

// TestBatchMatchesSerialRandomized drives the batch path with randomly
// sized batches over a randomly generated stream — the quick-check
// companion to the fixed-size table above.
func TestBatchMatchesSerialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		gcfg := genConfig{nVerts: 40, nEdges: 400, types: []string{"a", "b", "c"}, queryLen: 3, tree: trial%2 == 1}
		edges := randomStream(rng, gcfg)
		q := randomQuery(rng, gcfg)
		stats := collect(edges)
		for _, s := range []Strategy{StrategySingle, StrategySingleLazy, StrategyPath, StrategyPathLazy} {
			want := runSerialPerEdge(t, q, edges, s, 80, stats)
			eng, err := New(q, Config{Strategy: s, Window: 80, Stats: stats})
			if err != nil {
				t.Fatalf("trial %d: %v: %v", trial, s, err)
			}
			var got [][]string
			for lo := 0; lo < len(edges); {
				hi := lo + 1 + rng.Intn(50)
				if hi > len(edges) {
					hi = len(edges)
				}
				for _, ms := range eng.ProcessBatch(edges[lo:hi]) {
					got = appendEdgeSigs(eng, got, ms)
				}
				lo = hi
			}
			comparePerEdge(t, fmt.Sprintf("trial %d %v random batches", trial, s), got, want)
		}
	}
}
