package core

import (
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
)

// This file exposes the engine-state surface the persist package needs
// to checkpoint a continuous query and resume it in a new process:
// configuration, the lazy bitmap, deferred retrospective work, and
// counter restoration. The windowed graph itself is reachable through
// Graph(), and the SJ-Tree's stored matches through Tree().EachStored.

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
	e.recycleResults()
	if !e.lazy || e.tree == nil {
		return nil
	}
	for l := 0; l < e.tree.NumLeaves(); l++ {
		e.drainRetro(l, iso.NoEdge)
	}
	e.stats.CompleteMatches += int64(len(e.curResults))
	return e.curResults
}

// ForceEvict runs the window sweep immediately (see sweep), regardless
// of the EvictEvery cadence, and returns the cutoff applied (0 when
// windowing is off). It is for an engine that owns its graph: a query
// engine under a MultiEngine is swept by the MultiEngine, together with
// every other engine on the shared graph.
func (e *Engine) ForceEvict() int64 {
	if e.cfg.Window <= 0 {
		return 0
	}
	cutoff := e.g.LastTS() - e.cfg.Window + 1
	e.stats.GraphEvicted += int64(sweep(e.g, cutoff, e))
	e.sinceEvict = 0
	return cutoff
}

// LazyBits returns a copy of the per-vertex leaf-enablement bitmap
// (empty for non-lazy strategies).
func (e *Engine) LazyBits() map[graph.VertexID]uint64 {
	out := make(map[graph.VertexID]uint64, len(e.bitSet))
	for _, v := range e.bitSet {
		out[v] = e.bits[v]
	}
	return out
}

// RestoreLazyBits replaces the lazy bitmap (no-op for non-lazy
// strategies). Restored bits do not queue retrospective searches: the
// snapshot was taken after FlushPending, so that work is already done.
func (e *Engine) RestoreLazyBits(bits map[graph.VertexID]uint64) {
	if !e.lazy {
		return
	}
	e.clearBits()
	for v, b := range bits {
		e.enableBits(v, b)
	}
}

// RestoreStats overwrites the engine's counters (tree counters restore
// through the tree itself and are ignored here).
func (e *Engine) RestoreStats(s Stats) {
	tree := e.stats.Tree
	e.stats = s
	e.stats.Tree = tree
}
