package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"streamgraph/internal/graph"
	"streamgraph/internal/query"
	"streamgraph/internal/refmatch"
	"streamgraph/internal/stream"
)

// TestRegisterWithBackfillDifferential registers each churn query late,
// with backfill, on a MultiEngine that has run half the churn stream,
// and holds what it reports to the never-recycling oracle run over the
// live edges the registration found, in arrival order, and the rest of
// the stream: the initial matches (with the repairs FlushPending drains
// right after) are the oracle's matches completed among the live edges,
// each once, and the matches of the rest are the oracle's completed
// there. Every strategy is held to it. The window, wider than the churn
// tests' so that the live edges hold complete matches, still recycles
// vertex and edge IDs many times over before the registration, so the
// graph's arena order is not its arrival order.
func TestRegisterWithBackfillDifferential(t *testing.T) {
	const window = 128
	edges, stats, _ := churnWorkload(t, 3)
	cut := len(edges) / 2
	strategies := []Strategy{StrategySingle, StrategySingleLazy, StrategyPath, StrategyPathLazy, StrategyVF2, StrategyIncIso}
	for name, q := range refmatch.ChurnQueries() {
		for _, s := range strategies {
			label := fmt.Sprintf("%s/%v", name, s)
			m := NewMulti(MultiConfig{Window: window})
			for _, se := range edges[:cut] {
				m.ProcessEdge(se)
			}

			// The live edges in arena and in arrival order, as stream edges.
			g := m.Graph()
			var arena []graph.Edge
			g.EachEdge(func(de graph.Edge) bool {
				arena = append(arena, de)
				return true
			})
			live := slices.SortedFunc(slices.Values(arena), func(a, b graph.Edge) int { return cmp.Compare(a.Seq, b.Seq) })
			if slices.Equal(arena, live) {
				t.Fatalf("%s: the live edges are in arena order; the stream recycles no edge ID", label)
			}
			replay := make([]stream.Edge, len(live))
			for i, de := range live {
				replay[i] = stream.Edge{
					Src: g.VertexName(de.Src), SrcLabel: g.Labels().Name(uint32(g.VertexLabel(de.Src))),
					Dst: g.VertexName(de.Dst), DstLabel: g.Labels().Name(uint32(g.VertexLabel(de.Dst))),
					Type: g.Types().Name(uint32(de.Type)), TS: de.TS,
				}
			}
			wantInitial, wantRest := make(map[string]int), make(map[string]int)
			for _, mt := range refmatch.Run(map[string]*query.Graph{name: q}, append(replay, edges[cut:]...), window) {
				if mt.Last < len(replay) {
					wantInitial[mt.Key]++
				} else {
					wantRest[mt.Key]++
				}
			}
			if len(wantInitial) == 0 || len(wantRest) == 0 {
				t.Fatalf("%s: the oracle completes %d matches among the live edges and %d after; the differential is vacuous", label, len(wantInitial), len(wantRest))
			}

			initial, err := m.RegisterWithBackfill(name, q, Config{Strategy: s, Stats: stats})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got := make(map[string]int)
			for _, mt := range initial {
				got[refmatch.MatchKey(name, q, g, mt)]++
			}
			record := func(nms []NamedMatch) {
				for _, nm := range nms {
					got[refmatch.MatchKey(name, q, g, nm.Match)]++
				}
			}
			record(m.FlushPending())
			if d := refmatch.Diff(wantInitial, got); d != "" {
				t.Fatalf("%s: the backfill's matches differ from the oracle's among the live edges:\n%s", label, d)
			}
			clear(got)
			for _, se := range edges[cut:] {
				record(m.ProcessEdge(se))
			}
			record(m.FlushPending())
			if d := refmatch.Diff(wantRest, got); d != "" {
				t.Fatalf("%s: the matches after the registration differ from the oracle's:\n%s", label, d)
			}
		}
	}
}
