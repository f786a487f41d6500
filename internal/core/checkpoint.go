package core

import (
	"math"

	"streamgraph/internal/graph"
)

// Live-checkpoint accessors. persist.SaveMulti serializes a running
// MultiEngine WITHOUT flushing deferred lazy work or forcing eviction
// (both would change when matches are attributed relative to the
// stream, breaking the restored engine's byte-for-byte equivalence
// with an uninterrupted run). That requires exposing exactly the
// state a flush would have consumed: the queued retrospective work
// per leaf, and the shared sweep clock.

// PendingRetro returns the queued retrospective (lazy) search work:
// for each leaf, the vertices whose enable-time neighborhood repair
// has not run yet. Nil for non-lazy strategies.
func (e *Engine) PendingRetro() [][]graph.VertexID {
	if !e.lazy {
		return nil
	}
	out := make([][]graph.VertexID, len(e.pending))
	for i, items := range e.pending {
		if len(items) == 0 {
			continue
		}
		vs := make([]graph.VertexID, len(items))
		for j, it := range items {
			vs[j] = it.v
		}
		out[i] = vs
	}
	return out
}

// RestorePendingRetro replaces the queued retrospective work (the
// counterpart of PendingRetro on a freshly restored engine). The
// restored queue drains at the next processed edge, exactly where the
// checkpointed engine would have drained it. The floors are not saved:
// each item repairs its vertex's whole neighborhood, and the tree's
// dedup drops what it had stored already.
func (e *Engine) RestorePendingRetro(perLeaf [][]graph.VertexID) {
	if !e.lazy {
		return
	}
	for i, vs := range perLeaf {
		if i >= len(e.pending) || len(vs) == 0 {
			continue
		}
		items := make([]retroItem, len(vs))
		for j, v := range vs {
			items[j] = retroItem{v: v, floor: math.MinInt64}
		}
		e.pending[i] = items
	}
}

// WindowSize reports the shared window tW.
func (m *MultiEngine) WindowSize() int64 { return m.window }

// SweepClock reports the shared sweep clock (see sweepClock): the
// largest timestamp offered and the last cutoff swept at, each
// math.MinInt64 until there is one.
func (m *MultiEngine) SweepClock() (seenTS, cutoff int64) { return m.clock.seen, m.clock.cut }

// ForceEvict sweeps now (see sweep) at the exact cutoff T − Window + 1,
// not the clock's rounded one, and returns it (0 when windowing is off or
// nothing was offered yet); persist.Save runs it. The clock's next sweep
// is the one it would have run without this one: the next rounded
// cutoff above the last lies above the exact one.
func (m *MultiEngine) ForceEvict() int64 {
	cutoff, ok := m.clock.exact()
	if !ok {
		return 0
	}
	m.sweep(cutoff)
	m.clock.cut = max(m.clock.cut, cutoff)
	return cutoff
}

// RestoreSweepClock replaces the shared sweep clock and the ingest
// counters (Stats().EdgesProcessed and EdgesStored), so that a restored
// engine sweeps at exactly the stream positions and cutoffs the
// checkpointed engine's would have.
func (m *MultiEngine) RestoreSweepClock(seenTS, cutoff, edgesSeen, stored int64) {
	m.clock.seen, m.clock.cut = seenTS, cutoff
	m.edgesSeen, m.stored = edgesSeen, stored
}
