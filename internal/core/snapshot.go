package core

import (
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/sjtree"
)

// This file exposes the engine-state surface the persist package needs
// to checkpoint a continuous query and resume it in a new process:
// configuration, the Lazy Search stamps, deferred retrospective work,
// and counter restoration. The windowed graph itself is reachable
// through Graph(), the SJ-Tree's stored matches through
// Tree().EachStored, and the sweep clock through the host
// (checkpoint.go).

// ConfigSnapshot returns the engine's effective configuration with the
// decomposition pinned (Leaves filled in), so that an engine rebuilt
// from it decomposes identically without needing the original
// statistics.
func (e *Engine) ConfigSnapshot() Config {
	cfg := e.cfg
	cfg.Stats = nil
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

// Host returns the MultiEngine a standalone engine (New) runs on, nil
// for a query engine under a shared one.
func (e *Engine) Host() *MultiEngine { return e.host }

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
