package core

import (
	"streamgraph/internal/decompose"
	"streamgraph/internal/iso"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/sjtree"
	"streamgraph/internal/stream"
)

// AdaptiveConfig enables adaptive query processing (the paper's
// Section 7 follow-up problem): the engine keeps collecting subgraph
// statistics from the live stream and periodically re-runs the
// selectivity-driven decomposition; when the chosen decomposition
// changes, existing partial matches are migrated into the new SJ-Tree.
type AdaptiveConfig struct {
	// RecomputeEvery re-evaluates the decomposition after this many
	// processed edges (default 10000).
	RecomputeEvery int
}

// AdaptiveStats counts adaptive re-decomposition activity.
type AdaptiveStats struct {
	Recomputes int64 // decomposition re-evaluations
	Migrations int64 // tree rebuilds
	Migrated   int64 // partial matches carried into the new tree
	Dropped    int64 // partials with no representable projection
}

type adaptiveState struct {
	cfg        AdaptiveConfig
	collector  *selectivity.Collector
	sinceCheck int
	stats      AdaptiveStats
}

// AdaptiveStats returns the adaptive-processing counters (zero when
// adaptivity is disabled).
func (e *Engine) AdaptiveStats() AdaptiveStats {
	if e.adaptive == nil {
		return AdaptiveStats{}
	}
	return e.adaptive.stats
}

// observeAdaptive feeds the per-period statistics and periodically
// re-decomposes. The collector covers only the most recent period so a
// selectivity-order drift in the live stream is visible immediately
// instead of being washed out by the cumulative history; it is reset
// after every re-evaluation. This is the one collector still fed per
// edge: a period is RecomputeEvery processed edges, not a timestamp
// window, so the window statistics a registration computes on demand
// (selectivity.FromGraph) are not its input. Called once per processed
// edge of an adaptive engine only.
func (e *Engine) observeAdaptive(se stream.Edge) {
	a := e.adaptive
	a.collector.Add(se)
	a.sinceCheck++
	if a.sinceCheck >= a.cfg.RecomputeEvery {
		e.recomputeAdaptive()
	}
}

// recomputeAdaptive re-evaluates the decomposition against the current
// period's statistics and migrates the SJ-Tree when it changed. Called
// by observeAdaptive on the serial path and by processBatchAdaptive at
// the equivalent position inside a batch.
func (e *Engine) recomputeAdaptive() {
	a := e.adaptive
	a.sinceCheck = 0
	a.stats.Recomputes++

	leaves, kind, xi, err := decompose.Auto(e.q, a.collector)
	a.collector = selectivity.NewCollector()
	if err != nil {
		return
	}
	if sameLeaves(leaves, e.tree.LeafSets()) {
		return
	}
	if err := e.migrate(leaves); err != nil {
		return
	}
	e.chosenKind = kind
	e.relSel = xi
	a.stats.Migrations++
}

// migrate rebuilds the SJ-Tree with the new decomposition and carries
// over every stored partial match that projects onto a new leaf (the
// larger stored matches are projected, so information joined in the old
// tree survives structural regrouping). Matches whose binding cannot be
// expressed as new-leaf projections are dropped and rediscovered by the
// normal lazy repair; complete-match emission is suppressed during
// migration because any match assemblable from the old tables was
// already reported.
func (e *Engine) migrate(newLeaves [][]int) error {
	old := e.tree
	nt, err := sjtree.Build(e.q, newLeaves, e.cfg.Window)
	if err != nil {
		return err
	}
	// Dedup is required during migration: the same projection can be
	// derived from several old nodes.
	nt.Dedup = true

	// The engine's result slab is not the tree's: the matches this call
	// completed under the old tree stay in it, and the new tree's root
	// joins write after them.
	e.tree = nt
	e.matcher.Pool = nt.Pool()
	if e.lazy {
		// The stamp table restarts empty at the new leaf count; enable
		// regrows it, unset, as the new tree enables leaves.
		e.until, e.bitSet = e.until[:0], e.bitSet[:0]
		e.gated = len(newLeaves) - 1
		e.pending = make([][]retroItem, len(newLeaves))
	}

	a := e.adaptive
	old.EachStored(func(n *sjtree.Node, m iso.Match) bool {
		projectedAny := false
		for leafPos, leaf := range newLeaves {
			pm, ok := e.project(m, leaf)
			if !ok {
				continue
			}
			projectedAny = true
			nt.Insert(leafPos, pm, nil, e.onStored)
		}
		if projectedAny {
			a.stats.Migrated++
		} else {
			a.stats.Dropped++
		}
		return true
	})
	// Outside migration, dedup is only needed for lazy strategies; a
	// non-lazy engine would never read or clean the migration's
	// suppression counts, so drop them.
	nt.Dedup = e.lazy
	if !nt.Dedup {
		nt.DropDedupState()
	}
	return nil
}

// project restricts a stored match to the given leaf's query edges,
// recomputing the timespan from the live data edges. It fails when any
// required binding is missing or its edge has been evicted.
func (e *Engine) project(m iso.Match, leaf []int) (iso.Match, bool) {
	pm := iso.NewMatch(e.q)
	for _, qe := range leaf {
		eid := m.EdgeOf[qe]
		if eid == iso.NoEdge {
			return iso.Match{}, false
		}
		de, ok := e.g.Edge(eid)
		if !ok {
			return iso.Match{}, false
		}
		pm.EdgeOf[qe] = eid
		pm.VertexOf[e.q.Edges[qe].Src] = de.Src
		pm.VertexOf[e.q.Edges[qe].Dst] = de.Dst
		if de.TS < pm.MinTS {
			pm.MinTS = de.TS
		}
		if de.TS > pm.MaxTS {
			pm.MaxTS = de.TS
		}
	}
	return pm, true
}

func sameLeaves(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
