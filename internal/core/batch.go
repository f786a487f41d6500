// Batch ingestion: admit a whole slice of stream edges into the
// windowed graph with one amortized eviction pass, then run the serial
// per-edge merge over them in input order, each search bounded to its
// edge's point in time. A standalone Engine.ProcessBatch and every
// multi-query driver (Engine.searchShared) run this one path.
//
// The paper's engine (Algorithm 1) is strictly edge-at-a-time and
// defers scale-out to query partitioning (StreamWorks, Choudhury et al.
// 2013), which is internal/shard's job; a batch here only amortizes.
// What keeps its match sets identical to the serial loop is visibility:
// every graph edge carries an arrival sequence number, and each search
// is bounded by its anchor edge's Seq (iso.Matcher.MaxSeq), so a search
// anchored at batch edge i sees exactly the graph a serial run would
// have seen when i arrived, even though later batch edges are already
// present. All SJ-Tree mutation — lazy gating, retrospective repair,
// joins — happens in input order, as in the serial loop.
//
// Equivalence is exact when timestamps are non-decreasing and no
// load-shedding cap (MaxMatchesPerSearch, MaxWorkPerEdge,
// MaxStepsPerSearch) is active; under a cap both paths are best-effort.
// With out-of-order timestamps, serial results are already
// eviction-cadence-dependent (the EvictEvery slack of
// graph.ExpireBefore); there the batch path's lazier eviction reports
// a window-valid superset of the serial matches, never fewer — see
// Engine.advanceEvict.
package core

import (
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/stream"
)

// ProcessBatch folds a whole batch of stream edges into the graph and
// returns the new complete matches per input edge: out[i] holds exactly
// the matches a serial ProcessEdge(batch[i]) call would have returned
// at that point in the stream. Eviction and adaptive statistics are
// amortized to one pass per batch.
//
// The returned rows and the matches in them are the engine's: they stay
// valid until the next ProcessBatch, ProcessEdge or FlushPending call on
// this engine and no longer (see "Match lifetimes" in the package
// comment and batchArena).
func (e *Engine) ProcessBatch(batch []stream.Edge) [][]iso.Match {
	if len(batch) == 0 {
		return nil
	}
	e.recycleResults()
	e.arena.begin()
	if e.adaptive != nil {
		return e.processBatchAdaptive(batch)
	}
	return e.processSubBatch(batch)
}

// processSubBatch is the core batch step: amortized eviction, ingest,
// merge.
func (e *Engine) processSubBatch(batch []stream.Edge) [][]iso.Match {
	e.advanceEvict(len(batch))
	return e.searchBatch(e.ingestBatch(batch))
}

// processBatchAdaptive runs the batch pipeline for adaptive engines by
// splitting the batch at re-decomposition boundaries: within a run no
// recompute can fire, so every edge of it is searched under one tree.
// The serial schedule observes each edge into the period collector and
// fires the recompute on the edge that fills the period, after that
// edge is ingested but before it is searched — the split reproduces
// exactly that: edges before the trigger are searched
// under the old tree, the trigger edge and everything after it under
// the new one, with the trigger edge itself already observed.
func (e *Engine) processBatchAdaptive(batch []stream.Edge) [][]iso.Match {
	a := e.adaptive
	out := make([][]iso.Match, 0, len(batch))
	for len(batch) > 0 {
		until := a.cfg.RecomputeEvery - a.sinceCheck // edges until a recompute fires
		if until > len(batch) {
			a.collector.AddAll(batch)
			a.sinceCheck += len(batch)
			return append(out, e.processSubBatch(batch)...)
		}
		head := batch[:until]
		batch = batch[until:]
		a.collector.AddAll(head)
		if len(head) > 1 {
			out = append(out, e.processSubBatch(head[:len(head)-1])...)
		}
		e.recomputeAdaptive()
		out = append(out, e.processSubBatch(head[len(head)-1:])...)
	}
	return out
}

// ingestOne admits one stream edge into g, interning names, labels and
// the type, and returns the materialized edge. Every ingestion path —
// serial and batch, single- and multi-query — funnels through here so
// admission semantics cannot diverge.
func ingestOne(g *graph.Graph, se stream.Edge) graph.Edge {
	src := g.EnsureVertex(se.Src, se.SrcLabel)
	dst := g.EnsureVertex(se.Dst, se.DstLabel)
	eid := g.AddEdge(src, dst, graph.TypeID(g.Types().Intern(se.Type)), se.TS)
	de, _ := g.Edge(eid)
	return de
}

// ingestBatch admits the batch into the engine's own graph (single
// writer, no locking) and returns the materialized edges in input
// order.
func (e *Engine) ingestBatch(batch []stream.Edge) []graph.Edge {
	des := e.arena.edgeBuf(len(batch))
	for i, se := range batch {
		des[i] = ingestOne(e.g, se)
	}
	return des
}

// searchShared is the batch step of an engine under a multi-query
// driver (MultiEngine and, through it, every shard and remote worker),
// run after the driver's shared-graph ingest. Recycling the previous
// results and the arena here is safe: the driver has drained the
// previous batch's rows before it offers the next.
func (e *Engine) searchShared(des []graph.Edge) [][]iso.Match {
	e.recycleResults()
	e.arena.begin()
	return e.searchBatch(des)
}

// searchBatch runs the incremental search for a batch of edges already
// present in the graph and returns the per-edge complete matches: the
// serial per-edge step (Engine.searchEdge) in input order, with every
// search the engine's matcher issues — leaf searches and retrospective
// repair alike — bounded to the edge's point in time.
func (e *Engine) searchBatch(des []graph.Edge) [][]iso.Match {
	out := e.arena.rowBuf(len(des))
	for i, de := range des {
		start := len(e.curResults)
		e.matcher.MaxSeq = de.Seq
		e.searchEdge(de)
		// A row is the edge's stretch of curResults. Growth moves the
		// list, not the rows already cut: those keep the array they were
		// cut from, and the match values in it.
		if end := len(e.curResults); end > start {
			out[i] = e.curResults[start:end:end]
			e.stats.CompleteMatches += int64(end - start)
		}
	}
	e.matcher.MaxSeq = 0
	return out
}

// ProcessBatch ingests a batch into the shared graph — one statistics
// pass, one amortized eviction — and runs every registered query's
// inline batch merge over it (no goroutine is started per batch; see
// Engine.searchShared). Matches are returned edge-major: all matches
// completed by batch edge i (in query registration order) precede those
// of edge i+1, exactly the order a serial ProcessEdge loop reports. The
// result has ProcessBatchGrouped's lifetime.
func (m *MultiEngine) ProcessBatch(ses []stream.Edge) []NamedMatch {
	_, flat := m.processBatch(ses)
	return flat
}

// ProcessBatchGrouped is ProcessBatch with the results grouped by input
// edge: out[i] holds the matches batch edge i completed, in query
// registration order. The sharded runtime uses the grouping to tag each
// match with the arrival sequence of its completing edge — which is why
// the result stays aligned with the input slice even under a replica
// filter: filtered-out edges keep their slot and simply complete
// nothing.
//
// The returned slices are arena-backed and the matches in them belong
// to the query engines: both stay valid until the next result-returning
// call on this engine and no longer (see batchArena).
func (m *MultiEngine) ProcessBatchGrouped(ses []stream.Edge) [][]NamedMatch {
	rows, _ := m.processBatch(ses)
	return rows
}

// processBatch is the one batch pass behind both forms: flat holds every
// match edge-major, and rows[i] is the stretch of it batch edge i
// completed. Both are sized from the per-query results before a single
// match is copied, and a replica filter that rejects part of the batch
// costs nothing either — the admitted edges are ingested straight out of
// ses, and only their positions are kept (ingestBatch) — so a batch costs
// the heap nothing.
func (m *MultiEngine) processBatch(ses []stream.Edge) (rows [][]NamedMatch, flat []NamedMatch) {
	if len(ses) == 0 {
		return nil, nil
	}
	m.arena.begin()
	rows = m.arena.namedBuf(len(ses))
	des := m.ingestBatch(ses)
	if len(des) == 0 {
		return rows, nil
	}
	if cap(m.pq) < len(m.engines) {
		m.pq = make([][][]iso.Match, len(m.engines))
	}
	perQuery := m.pq[:len(m.engines)]
	total := 0
	for qi, eng := range m.engines {
		perQuery[qi] = eng.searchShared(des)
		for _, ms := range perQuery[qi] {
			total += len(ms)
		}
	}
	flat = m.arena.namedFlat(total)
	off := 0
	for i := range des {
		start := off
		for qi, name := range m.order {
			for _, mt := range perQuery[qi][i] {
				flat[off] = NamedMatch{Query: name, Match: mt}
				off++
			}
		}
		if off > start {
			rows[m.keptIdx[i]] = flat[start:off:off]
		}
	}
	return rows, flat
}

// ingestBatch admits the edges of a batch that pass the replica filter
// into the shared graph with one amortized eviction (run up front so the
// cutoff never gets ahead of the serial schedule's), returning the
// materialized edges in input order and leaving each one's position in
// ses in m.keptIdx. No stream.Edge is copied: the filter pass keeps
// positions only, in a list reused from batch to batch.
func (m *MultiEngine) ingestBatch(ses []stream.Edge) []graph.Edge {
	m.keptIdx = m.keptIdx[:0]
	for i, se := range ses {
		if m.admits(se) {
			m.keptIdx = append(m.keptIdx, int32(i))
		}
	}
	n := len(m.keptIdx)
	if n == 0 {
		return nil
	}
	m.advanceEvict(n)
	m.edgesSeen += int64(n)
	m.stored += int64(n)
	des := m.arena.edgeBuf(n)
	for k, i := range m.keptIdx {
		des[k] = ingestOne(m.g, ses[i])
	}
	return des
}
