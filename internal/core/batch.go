// Batch ingestion: admit a whole slice of stream edges into the
// windowed graph with one amortized eviction pass, then run the serial
// per-edge merge over them in input order, each search bounded to its
// edge's point in time: MultiEngine.ingestBatch, then Engine.searchBatch.
// A standalone Engine.ProcessBatch and every multi-query driver run this
// one path.
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
// With out-of-order timestamps, serial results already depend on where
// the sweeps fall (the slack of graph.ExpireBefore); there the batch
// path's later sweep reports a window-valid superset of the serial
// matches, never fewer — see sweepClock.
package core

import (
	"math"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/stream"
)

// ProcessBatch folds a whole batch of stream edges into the graph and
// returns the new complete matches per input edge: out[i] holds exactly
// the matches a serial ProcessEdge(batch[i]) call would have returned
// at that point in the stream. Eviction is amortized to one pass per
// batch.
//
// The returned rows and the matches in them are the engine's: they stay
// valid until the next ProcessBatch, ProcessEdge or FlushPending call on
// this engine and no longer (see "Match lifetimes" in the package
// comment and batchArena). The rows stay aligned with batch: an edge
// outside the query's footprint keeps its slot and completes nothing,
// and its timestamp is still offered to the host's sweep clock.
func (e *Engine) ProcessBatch(batch []stream.Edge) [][]iso.Match {
	e.mustStandalone("ProcessBatch")
	if len(batch) == 0 {
		return nil
	}
	e.res.Reset()
	e.arena.begin()
	e.host.arena.begin()
	des, hiTS := e.host.ingestBatch(batch)
	e.host.clock.offer(hiTS)
	e.stats.EdgesProcessed += int64(len(batch) - len(des))
	rows := e.searchBatch(des)
	if len(des) == len(batch) {
		return rows
	}
	out := e.arena.rowBuf(len(batch))
	for k, ke := range e.host.adm.kept {
		out[ke.pos] = rows[k]
	}
	return out
}

// admission is the one way a stream edge enters a MultiEngine's graph:
// its replica filter (SetReplicaFilter), by admit, per edge, or filter
// and ingest, per batch. The check is one interner probe per edge: an Intern under a universal set, a Lookup and a Has under a
// narrow one, so a type the set does not hold is never interned. An edge
// the set drops touches nothing — no name probe, no AddEdge, no search —
// and what it still counts for (the sweep clock) is the caller's.
type admission struct {
	types graph.TypeSet
	// kept lists, for the batch the last filter passed over, the
	// position and resolved type of every edge admitted, in input order;
	// it is reused from batch to batch, so no stream.Edge is copied.
	kept []keptEdge
}

// keptEdge is one admitted edge of a batch.
type keptEdge struct {
	pos int32
	typ graph.TypeID
}

// admit resolves se's type against g's interner and reports whether the
// set admits the edge.
func (a *admission) admit(g *graph.Graph, se stream.Edge) (graph.TypeID, bool) {
	if a.types.Universal() {
		return graph.TypeID(g.Types().Intern(se.Type)), true
	}
	id, ok := g.Types().Lookup(se.Type)
	return graph.TypeID(id), ok && a.types.Has(graph.TypeID(id))
}

// filter runs admit over a batch, recording the admitted edges in kept.
// It returns how many were admitted and the largest timestamp offered.
// It mutates nothing but the interner, so the caller may sweep between
// it and ingest.
func (a *admission) filter(g *graph.Graph, ses []stream.Edge) (n int, hiTS int64) {
	a.kept, hiTS = a.kept[:0], math.MinInt64
	for i, se := range ses {
		hiTS = max(hiTS, se.TS)
		if t, ok := a.admit(g, se); ok {
			a.kept = append(a.kept, keptEdge{pos: int32(i), typ: t})
		}
	}
	return len(a.kept), hiTS
}

// ingest adds the edges the last filter over ses kept to g and returns
// them materialized, in input order, in an arena buffer.
func (a *admission) ingest(g *graph.Graph, ses []stream.Edge, arena *batchArena) []graph.Edge {
	des := arena.edgeBuf(len(a.kept))
	for k, ke := range a.kept {
		des[k] = ingestOne(g, ses[ke.pos], ke.typ)
	}
	return des
}

// ingestOne adds one stream edge of the resolved type t to g, interning
// names and labels, and returns the materialized edge.
func ingestOne(g *graph.Graph, se stream.Edge, t graph.TypeID) graph.Edge {
	src := g.EnsureVertex(se.Src, se.SrcLabel)
	dst := g.EnsureVertex(se.Dst, se.DstLabel)
	de, _ := g.Edge(g.AddEdge(src, dst, t, se.TS))
	return de
}

// searchShared is the batch step of an engine under a multi-query
// driver (MultiEngine and, through it, every shard and remote worker),
// run after the driver's batch ingest. Recycling the previous
// results and the arena here is safe: the driver has drained the
// previous batch's rows before it offers the next.
func (e *Engine) searchShared(des []graph.Edge) [][]iso.Match {
	e.res.Reset()
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
		start := len(e.res.Matches)
		e.matcher.MaxSeq = de.Seq
		e.searchEdge(de)
		// A row is the edge's stretch of res.Matches. Growth moves the
		// list, not the rows already cut: those keep the array they were
		// cut from, and the match values in it.
		if end := len(e.res.Matches); end > start {
			out[i] = e.res.Matches[start:end:end]
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
// ses, and only their positions are kept (admission) — so a batch costs
// the heap nothing.
func (m *MultiEngine) processBatch(ses []stream.Edge) (rows [][]NamedMatch, flat []NamedMatch) {
	if len(ses) == 0 {
		return nil, nil
	}
	m.arena.begin()
	rows = m.arena.namedBuf(len(ses))
	des, _ := m.ingestBatch(ses)
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
			rows[m.adm.kept[i].pos] = flat[start:off:off]
		}
	}
	return rows, flat
}

// ingestBatch is the one batch ingest: the sweep, from the clock before
// the batch (see sweepClock), then admission, ingest and the clock. It
// returns the admitted edges in input order, in an arena buffer
// (m.adm.kept holds their positions in ses), and the batch's largest
// timestamp.
func (m *MultiEngine) ingestBatch(ses []stream.Edge) (des []graph.Edge, hiTS int64) {
	m.maybeEvict()
	n, hiTS := m.adm.filter(m.g, ses)
	m.edgesSeen += int64(n)
	m.stored += int64(n)
	des = m.adm.ingest(m.g, ses, &m.arena)
	for _, de := range des {
		m.clock.offer(de.TS)
	}
	return des, hiTS
}
