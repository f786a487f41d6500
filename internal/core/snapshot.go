package core

import (
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/sjtree"
)

// This file exposes the engine-state surface the persist package needs
// to checkpoint a continuous query and resume it in a new process:
// configuration, the sweep clock, the Lazy Search stamps, deferred
// retrospective work, and counter restoration. The windowed graph
// itself is reachable through Graph(), and the SJ-Tree's stored matches
// through Tree().EachStored.

// ConfigSnapshot returns the engine's effective configuration with the
// decomposition pinned (Leaves filled in), so that an engine rebuilt
// from it decomposes identically without needing the original
// statistics.
func (e *Engine) ConfigSnapshot() Config {
	cfg := e.cfg
	cfg.Stats = nil
	cfg.Adaptive = nil
	if e.tree != nil {
		cfg.Leaves = e.tree.LeafSets()
	}
	return cfg
}

// FlushPending runs every queued retrospective search now instead of on
// the next edge arrival, returning any complete matches the deferred
// work produces. Snapshots call it so that pending work does not need
// to be serialized; running it early is semantically equivalent because
// the searches only see edges that have already arrived. The result has
// ProcessEdge's lifetime: valid until the next result-returning call.
func (e *Engine) FlushPending() []iso.Match {
	e.res.Reset()
	if !e.lazy || e.tree == nil {
		return nil
	}
	for l := 0; l < e.tree.NumLeaves(); l++ {
		e.drainRetro(l, iso.NoEdge)
	}
	e.stats.CompleteMatches += int64(len(e.res.Matches))
	return e.res.Matches
}

// ForceEvict runs the window sweep immediately (see sweep) at the exact
// cutoff, T − Window + 1, rather than the sweep clock's rounded one, and
// returns the cutoff applied (0 when windowing is off or no edge was
// offered yet). It is for an engine that owns its graph: a query engine
// under a MultiEngine is swept by the MultiEngine, together with every
// other engine on the shared graph. T counts the edges the footprint
// dropped (see Engine.adm), and a restored engine has it from the image.
// The clock's next sweep is the one it would have run without this one:
// the next rounded cutoff above the last lies above the exact one.
func (e *Engine) ForceEvict() int64 {
	cutoff, ok := e.clock.exact()
	if !ok {
		return 0
	}
	e.stats.GraphEvicted += int64(sweep(e.g, cutoff, e))
	e.clock.cut = max(e.clock.cut, cutoff)
	return cutoff
}

// SweepClock reports the sweep clock (see sweepClock): the largest
// timestamp offered and the last cutoff swept at, each math.MinInt64
// until there is one.
func (e *Engine) SweepClock() (seenTS, cutoff int64) { return e.clock.seen, e.clock.cut }

// RestoreSweepClock replaces the sweep clock, so that a restored engine
// sweeps where the saved one would have.
func (e *Engine) RestoreSweepClock(seenTS, cutoff int64) {
	e.clock.seen, e.clock.cut = seenTS, cutoff
}

// RestoreLazyStamps rebuilds the Lazy Search stamps of an engine whose
// stored partial matches have just been restored (no-op for non-lazy
// strategies): every stored match enables its node's next leaf around
// its vertices, as onStored did when it was stored, and hiTS becomes
// the graph's latest timestamp. A saved stamp above the rebuilt one
// came from partials since evicted, which nothing can join any more. A
// lapsed stamp is repaired from at its next raise, as the saved engine
// would have; a vertex no stored partial binds is repaired whole at
// its next enablement, and no partial stored before the restore can
// join what that finds. Those floors are what keep a migration target,
// which may still hold edges its source evicted, from joining a leaf
// match on one of them again with a partial it already joined.
func (e *Engine) RestoreLazyStamps() {
	if !e.lazy {
		return
	}
	e.clearStamps()
	e.hiTS = max(e.hiTS, e.g.LastTS())
	e.tree.EachStored(func(n *sjtree.Node, m iso.Match) bool {
		if n.NextLeaf < 0 {
			return true
		}
		until := e.enabledUntil(m)
		for _, v := range m.VertexOf {
			if v != graph.NoVertex {
				e.enable(v, n.NextLeaf, until)
			}
		}
		return true
	})
}

// RestoreStats overwrites the engine's counters (tree counters restore
// through the tree itself and are ignored here).
func (e *Engine) RestoreStats(s Stats) {
	tree := e.stats.Tree
	e.stats = s
	e.stats.Tree = tree
}
