// Batch-path result arena. Every ProcessBatch call used to allocate a
// fresh set of scratch slices — the materialized-edge buffer, the
// per-edge result headers, and the named-match rows of the multi-query
// drivers.
// Under the steady-state batch workloads the sharded runtime drives
// (thousands of small batches per second per engine) those short-lived
// slices dominated the allocation profile of an otherwise
// allocation-free engine (see the PR 3/PR 4 gates in
// internal/sjtree/alloc_test.go and alloc_test.go).
//
// batchArena replaces them with generation-scoped reuse: begin() opens
// a generation (one top-level batch), the take methods hand out
// sub-slices of per-kind backing buffers, and the NEXT begin() recycles
// everything at once. Within a generation nothing is ever handed out
// twice and the backing buffers never reallocate (overflow is served by
// a plain make, and the recorded demand grows the buffer for the next
// generation instead), so a slice taken earlier in the generation is
// never invalidated by a later take.
//
// Ownership contract: slices returned by ProcessBatch /
// ProcessBatchGrouped (and by MultiEngine.ProcessEdge, which opens a
// generation of its own) remain valid until the NEXT result-returning
// call on the same engine, and no longer. Every caller in the tree (the
// facade Monitor, the shard worker loop, the dshard host) consumes or
// copies each call's matches before making the next, which is exactly
// the lifetime a generation gives them. The bindings behind the
// iso.Match values end with the same call: they are windows of the
// emitting engine's result slab, which its next call truncates and
// writes over (see "Match lifetimes" in the package comment), so a
// caller that retains a match must Clone it; copying the row alone
// keeps headers whose bindings are about to be rewritten.
package core

import (
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
)

// batchArena is the per-engine scratch allocator for the batch path.
// It is owned by exactly one batch generation at a time (the engine's
// single writer), never shared across goroutines.
type batchArena struct {
	edges []graph.Edge   // materialized-edge buffers (admission.ingest)
	rows  [][]iso.Match  // result row headers
	named [][]NamedMatch // per-edge named-match row headers
	flat  []NamedMatch   // the named matches those rows are cut from

	edgesU, rowsU, namedU, flatU int // used this generation
	edgesD, rowsD, namedD, flatD int // demand this generation
}

// begin opens a new generation: everything handed out by the previous
// one is recycled, and any buffer whose demand outgrew it is resized
// so this generation's takes stay in the arena.
func (a *batchArena) begin() {
	if a.edgesD > cap(a.edges) {
		a.edges = make([]graph.Edge, a.edgesD)
	}
	if a.rowsD > cap(a.rows) {
		a.rows = make([][]iso.Match, a.rowsD)
	}
	if a.namedD > cap(a.named) {
		a.named = make([][]NamedMatch, a.namedD)
	}
	if a.flatD > cap(a.flat) {
		a.flat = make([]NamedMatch, a.flatD)
	}
	a.edges, a.rows = a.edges[:cap(a.edges)], a.rows[:cap(a.rows)]
	a.named, a.flat = a.named[:cap(a.named)], a.flat[:cap(a.flat)]
	a.edgesU, a.rowsU, a.namedU, a.flatU = 0, 0, 0, 0
	a.edgesD, a.rowsD, a.namedD, a.flatD = 0, 0, 0, 0
}

// edgeBuf returns an uninitialized length-n edge buffer (the caller
// assigns every element). It is the only per-batch edge storage: an
// engine takes one for the edges its admission keeps and materializes
// them straight out of the caller's batch (admission.ingest) — the
// stream edges themselves are never copied.
func (a *batchArena) edgeBuf(n int) []graph.Edge {
	a.edgesD += n
	if a.edgesU+n <= len(a.edges) {
		s := a.edges[a.edgesU : a.edgesU+n : a.edgesU+n]
		a.edgesU += n
		return s
	}
	return make([]graph.Edge, n)
}

// rowBuf returns a zeroed length-n row buffer (semantically identical
// to make([][]iso.Match, n) — callers rely on untouched rows being
// nil).
func (a *batchArena) rowBuf(n int) [][]iso.Match {
	a.rowsD += n
	if a.rowsU+n <= len(a.rows) {
		s := a.rows[a.rowsU : a.rowsU+n : a.rowsU+n]
		a.rowsU += n
		clear(s)
		return s
	}
	return make([][]iso.Match, n)
}

// namedBuf returns a zeroed length-n named-match row buffer.
func (a *batchArena) namedBuf(n int) [][]NamedMatch {
	a.namedD += n
	if a.namedU+n <= len(a.named) {
		s := a.named[a.namedU : a.namedU+n : a.namedU+n]
		a.namedU += n
		clear(s)
		return s
	}
	return make([][]NamedMatch, n)
}

// namedFlat returns an uninitialized length-n named-match buffer (the
// caller assigns every element), nil for n == 0.
func (a *batchArena) namedFlat(n int) []NamedMatch {
	if n == 0 {
		return nil
	}
	a.flatD += n
	if a.flatU+n <= len(a.flat) {
		s := a.flat[a.flatU : a.flatU+n : a.flatU+n]
		a.flatU += n
		return s
	}
	return make([]NamedMatch, n)
}
