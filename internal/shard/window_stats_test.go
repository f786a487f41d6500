package shard

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/refmatch"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

// statsView is what the differential compares: the totals and the two
// histograms, with zero rows dropped (a type or shape seen once and
// gone is a row in a collector that lived through it and no row in one
// built afterwards) and each path key's two ends put in name order (a
// collector orders them by interned ID, which depends on what it saw
// first).
type statsView struct {
	EdgeTotal, PathTotal int64
	Edges, Paths         []selectivity.HistogramEntry
}

func viewOf(c *selectivity.Collector) statsView {
	v := statsView{EdgeTotal: c.EdgeTotal(), PathTotal: c.PathTotal()}
	for _, row := range c.EdgeHistogram() {
		if row.Count != 0 {
			v.Edges = append(v.Edges, row)
		}
	}
	for _, row := range c.PathHistogram() {
		if a, b, ok := strings.Cut(row.Key, ")-"); ok && b < a+")" {
			row.Key = b + "-" + a + ")"
		}
		v.Paths = append(v.Paths, row)
	}
	sort.Slice(v.Paths, func(i, j int) bool {
		if v.Paths[i].Count != v.Paths[j].Count {
			return v.Paths[i].Count > v.Paths[j].Count
		}
		return v.Paths[i].Key < v.Paths[j].Key
	})
	return v
}

// windowRef is the reference the two feeds are held to: a collector
// driven by Add on arrival and by Remove once an edge's timestamp falls
// below the cutoff.
type windowRef struct {
	c      *selectivity.Collector
	live   []stream.Edge
	lastTS int64
}

func (w *windowRef) batch(ses []stream.Edge, window int64) {
	for _, e := range ses {
		w.c.Add(e)
		w.live = append(w.live, e)
		w.lastTS = max(w.lastTS, e.TS)
	}
	if window <= 0 {
		return
	}
	kept := w.live[:0]
	for _, e := range w.live {
		if e.TS < w.lastTS-window+1 {
			w.c.Remove(e)
		} else {
			kept = append(kept, e)
		}
	}
	w.live = kept
}

// TestWindowStatisticsDifferential: after every batch, the statistics a
// MultiEngine computes from its graph (selectivity.FromGraph), the ones
// a router computes from its EdgeLog (EdgeLog.Statistics) and a
// reference collector driven by Add on arrival and Remove once ts falls
// below LastTS - Window + 1 agree on EdgeTotal, PathTotal, EdgeHistogram
// and PathHistogram — over refmatch's churn stream and testStream, with
// timestamps regressing inside the window, with Window == 0, half the
// batches per edge, with the log trimmed on the router's schedule and
// with trimming held back as a floor or a remote pin would, and on a
// filtered replica against a log and a reference restricted to its
// footprint's types.
//
// The window is defined by the cutoff, not by what happens to be held:
// computing from every live, un-swept edge (dropping the ts filter of
// FromGraph) fails here, where the graph holds expired timestamps
// between sweeps — up to a clock step's worth per edge, and a batch's
// worth since a batch sweeps before it ingests — and dropping
// AddSince's filter fails wherever trimming lags the cutoff.
func TestWindowStatisticsDifferential(t *testing.T) {
	regress := func(edges []stream.Edge, by int64) []stream.Edge {
		rng := rand.New(rand.NewSource(3))
		out := append([]stream.Edge(nil), edges...)
		for i := range out {
			if rng.Intn(4) == 0 {
				out[i].TS = max(out[i].TS-rng.Int63n(by), 1)
			}
		}
		return out
	}
	streams := []struct {
		name   string
		edges  []stream.Edge
		window int64
		fp     []string // the filtered replica's footprint
	}{
		{"churn", refmatch.Churn(1, 3000, refmatch.ChurnDomain), refmatch.ChurnWindow, []string{"TCP", "GRE"}},
		{"churn regressing", regress(refmatch.Churn(2, 3000, refmatch.ChurnDomain), refmatch.ChurnWindow/2), refmatch.ChurnWindow, []string{"UDP", "ICMP"}},
		{"netflow", testStream(3000), 400, []string{"TCP", "ICMP", "GRE"}},
		{"netflow regressing", regress(testStream(3000), 200), 400, []string{"UDP"}},
		{"netflow unbounded", testStream(1200), 0, []string{"TCP", "UDP"}},
	}
	const batch = 64
	for _, st := range streams {
		where := st.name
		inFP := make(map[string]bool)
		for _, tp := range st.fp {
			inFP[tp] = true
		}
		full := core.NewMulti(core.MultiConfig{Window: st.window})
		replica := core.NewMulti(core.MultiConfig{Window: st.window})
		replica.SetReplicaFilter(st.fp, false)
		log, heldLog, fpLog := NewEdgeLog(), NewEdgeLog(), NewEdgeLog()
		ref := &windowRef{c: selectivity.NewCollector()}
		fpRef := &windowRef{c: selectivity.NewCollector()}
		expired, lagged := false, false

		seq := uint64(0)
		for lo := 0; lo < len(st.edges); lo += batch {
			ses := st.edges[lo:min(lo+batch, len(st.edges))]
			var fpSes []stream.Edge
			for _, e := range ses {
				if inFP[e.Type] {
					fpSes = append(fpSes, e)
				}
			}
			// Half the batches reach the engines edge by edge: the two
			// paths sweep at different points of a batch.
			if (lo/batch)%2 == 0 {
				full.ProcessBatch(ses)
				replica.ProcessBatch(ses)
			} else {
				for _, e := range ses {
					full.ProcessEdge(e)
					replica.ProcessEdge(e)
				}
			}
			for _, l := range []*EdgeLog{log, heldLog} {
				l.Append(ses, seq)
			}
			fpLog.Append(fpSes, seq)
			seq += uint64(len(ses))
			if st.window > 0 {
				log.TrimBefore(log.MaxTS()-st.window+1, ^uint64(0))
				fpLog.TrimBefore(fpLog.MaxTS()-st.window+1, ^uint64(0))
				if (lo/batch)%8 == 7 { // a floor released now and then
					heldLog.TrimBefore(heldLog.MaxTS()-st.window+1, ^uint64(0))
				}
			}
			ref.batch(ses, st.window)
			fpRef.batch(fpSes, st.window)

			want := viewOf(ref.c)
			for feed, c := range map[string]*selectivity.Collector{
				"graph":    full.Statistics(),
				"log":      log.Statistics(st.window),
				"held log": heldLog.Statistics(st.window),
			} {
				if got := viewOf(c); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, edges %d: statistics from the %s (%d edges, %d paths) differ from the reference (%d, %d)",
						where, lo+len(ses), feed, got.EdgeTotal, got.PathTotal, want.EdgeTotal, want.PathTotal)
				}
			}
			want = viewOf(fpRef.c)
			for feed, c := range map[string]*selectivity.Collector{
				"replica graph": replica.Statistics(),
				"footprint log": fpLog.Statistics(st.window),
			} {
				if got := viewOf(c); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, edges %d: statistics from the %s (%d edges, %d paths) differ from the footprint's reference (%d, %d)",
						where, lo+len(ses), feed, got.EdgeTotal, got.PathTotal, want.EdgeTotal, want.PathTotal)
				}
			}
			expired = expired || int64(full.Graph().NumEdges()) > ref.c.EdgeTotal()
			lagged = lagged || int64(heldLog.NumEdges()) > ref.c.EdgeTotal()+batch
		}
		if st.window > 0 && ref.c.EdgeTotal() >= int64(len(st.edges))/2 {
			t.Fatalf("%s: the window holds %d of %d edges; the differential is vacuous", where, ref.c.EdgeTotal(), len(st.edges))
		}
		if st.window > 0 && !expired {
			t.Fatalf("%s: the graph never held an edge past the window; the cutoff went untested", where)
		}
		if st.window > 0 && !lagged {
			t.Fatalf("%s: the held log never lagged the window by more than a batch", where)
		}
	}
}
