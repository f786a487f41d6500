package core

import (
	"fmt"
	"slices"
	"testing"

	"streamgraph/internal/datagen"
	"streamgraph/internal/query"
	"streamgraph/internal/refmatch"
	"streamgraph/internal/stream"
)

// clockTier is one tier under TestSweepClockDifferential: its sweep
// clock, the cutoffs the clock fired at, and its graph's live edges.
type clockTier struct {
	name  string
	clock *sweepClock
	cuts  []int64
	live  func() int
}

// watch hooks the tier's clock: every cutoff it fires at is recorded
// and must be a multiple of the step, no greater than the exact cutoff
// T − Window + 1.
func (c *clockTier) watch(t *testing.T, label string) {
	step := max(1, c.clock.window/32)
	c.clock.swept = func(cut int64) {
		if exact := c.clock.seen - c.clock.window + 1; cut%step != 0 || cut > exact {
			t.Errorf("%s: %s swept at %d: want a multiple of %d no greater than the exact cutoff %d", label, c.name, cut, step, exact)
		}
		c.cuts = append(c.cuts, cut)
	}
}

// TestSweepClockDifferential holds every tier to the one sweep clock.
// Four tiers take each workload per edge and in batches of 64 and 512: a
// universal Engine (a query with a wildcard edge type), an Engine filtered
// to its query's footprint, a universal MultiEngine, and a filtered
// replica — a MultiEngine under the footprint's replica filter that is
// offered only the footprint's edges, per edge or as the footprint's
// share of each batch, as the sharded runtime's router offers them. The
// workloads are the netflow prefix of TestReferenceWorkloadBatch and
// refmatch's churn stream, each with timestamps in order and regressing.
//
// The two Engines and the universal MultiEngine sweep at the same
// cutoffs after every call, and the universal tiers hold the same live
// edges. The replica sees no edge outside the footprint, so its clock can
// only trail theirs. With timestamps in order it trails by no more than
// the batch path's one batch: per edge it has swept where the filtered
// Engine has after every edge it is offered, holding the same live edges,
// and its cutoffs are a subsequence of the Engine's; in batches it has
// swept at least where the Engine had one call earlier, whenever the
// batch before held a footprint edge.
func TestSweepClockDifferential(t *testing.T) {
	netflow := datagen.Netflow(datagen.NetflowConfig{Seed: 1, Edges: 30000, Hosts: 4000})[:8000]
	churn := refmatch.Churn(1, refmatch.ChurnEdges, refmatch.ChurnDomain)
	netflowQ := query.NewPath(query.Wildcard, "UDP", "ICMP", "GRE")
	churnQ := refmatch.ChurnQueries()["path3"]
	for _, wl := range []struct {
		name    string
		edges   []stream.Edge
		window  int64
		q       *query.Graph
		inOrder bool
	}{
		{"netflow", netflow, 2000, netflowQ, true},
		{"netflow regressing", regressTimestamps(netflow, 300, 5), 2000, netflowQ, false},
		{"churn", churn, refmatch.ChurnWindow, churnQ, true},
		{"churn regressing", regressTimestamps(churn, 24, 6), refmatch.ChurnWindow, churnQ, false},
	} {
		fpTypes, exact := wl.q.TypeFootprint()
		if !exact {
			t.Fatalf("%s: the query's footprint is universal", wl.name)
		}
		inFP := func(se stream.Edge) bool { return slices.Contains(fpTypes, se.Type) }
		leaves := make([][]int, len(wl.q.Edges))
		for i := range leaves {
			leaves[i] = []int{i}
		}
		cfg := Config{Strategy: StrategySingleLazy, Window: wl.window, Leaves: leaves}
		anyQ := query.NewPath(query.Wildcard, query.Wildcard)
		anyCfg := Config{Strategy: StrategySingle, Window: wl.window, Leaves: [][]int{{0}}}

		for _, bs := range []int{0, 64, 512} {
			label := fmt.Sprintf("%s/batch %d", wl.name, bs)
			univ, err := New(anyQ, anyCfg)
			if err != nil {
				t.Fatal(err)
			}
			filt, err := New(wl.q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			multi := NewMulti(MultiConfig{Window: wl.window})
			if err := multi.Register("any", anyQ, anyCfg); err != nil {
				t.Fatal(err)
			}
			replica := NewMulti(MultiConfig{Window: wl.window})
			replica.SetReplicaFilter(fpTypes, false)
			if err := replica.Register("q", wl.q, cfg); err != nil {
				t.Fatal(err)
			}
			tiers := []*clockTier{
				{name: "universal Engine", clock: &univ.host.clock, live: univ.g.NumEdges},
				{name: "footprint Engine", clock: &filt.host.clock, live: filt.g.NumEdges},
				{name: "universal MultiEngine", clock: &multi.clock, live: multi.g.NumEdges},
				{name: "filtered replica", clock: &replica.clock, live: replica.g.NumEdges},
			}
			for _, c := range tiers {
				c.watch(t, label)
			}
			ut, ft, mt, rt := tiers[0], tiers[1], tiers[2], tiers[3]

			prevCut, prevHadFP := ft.clock.cut, false
			for chunk := range slices.Chunk(wl.edges, max(bs, 1)) {
				fp := slices.DeleteFunc(slices.Clone(chunk), func(se stream.Edge) bool { return !inFP(se) })
				if bs == 0 {
					univ.ProcessEdge(chunk[0])
					filt.ProcessEdge(chunk[0])
					multi.ProcessEdge(chunk[0])
					if len(fp) > 0 {
						replica.ProcessEdge(fp[0])
					}
				} else {
					univ.ProcessBatch(chunk)
					filt.ProcessBatch(chunk)
					multi.ProcessBatch(chunk)
					if len(fp) > 0 {
						replica.ProcessBatch(fp)
					}
				}
				at := fmt.Sprintf("%s: after the call ending at ts %d", label, chunk[len(chunk)-1].TS)
				if ut.clock.cut != ft.clock.cut || mt.clock.cut != ft.clock.cut {
					t.Fatalf("%s: the universal Engine, footprint Engine and universal MultiEngine swept to %d, %d and %d",
						at, ut.clock.cut, ft.clock.cut, mt.clock.cut)
				}
				if ut.live() != mt.live() {
					t.Fatalf("%s: the universal Engine holds %d live edges, the universal MultiEngine %d", at, ut.live(), mt.live())
				}
				if rt.clock.cut > ft.clock.cut {
					t.Fatalf("%s: the replica swept to %d, ahead of the footprint Engine's %d", at, rt.clock.cut, ft.clock.cut)
				}
				switch {
				case !wl.inOrder || len(fp) == 0:
				case bs == 0:
					if rt.clock.cut != ft.clock.cut || rt.live() != ft.live() {
						t.Fatalf("%s: the replica swept to %d holding %d live edges, the footprint Engine to %d holding %d",
							at, rt.clock.cut, rt.live(), ft.clock.cut, ft.live())
					}
				case prevHadFP && rt.clock.cut < prevCut:
					t.Fatalf("%s: the replica swept to %d, behind the footprint Engine's %d of a batch earlier", at, rt.clock.cut, prevCut)
				}
				prevCut, prevHadFP = ft.clock.cut, len(fp) > 0
			}

			if !slices.Equal(ut.cuts, ft.cuts) || !slices.Equal(mt.cuts, ft.cuts) {
				t.Fatalf("%s: cutoff sequences differ: universal Engine %d cutoffs, footprint Engine %d, universal MultiEngine %d",
					label, len(ut.cuts), len(ft.cuts), len(mt.cuts))
			}
			if len(ft.cuts) < 8 || len(rt.cuts) < 8 {
				t.Fatalf("%s: %d and %d sweeps; the differential is vacuous", label, len(ft.cuts), len(rt.cuts))
			}
			if wl.inOrder && bs == 0 && !isSubsequence(rt.cuts, ft.cuts) {
				t.Fatalf("%s: the replica's cutoffs are not a subsequence of the footprint Engine's", label)
			}
			if ft.live() >= ut.live() {
				t.Fatalf("%s: the footprint Engine holds %d live edges, the universal one %d; the footprint drops nothing", label, ft.live(), ut.live())
			}
		}
	}
}

// isSubsequence reports whether sub's elements appear in seq in order.
func isSubsequence(sub, seq []int64) bool {
	i := 0
	for _, v := range seq {
		if i < len(sub) && sub[i] == v {
			i++
		}
	}
	return i == len(sub)
}
