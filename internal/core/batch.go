// Batch ingestion: admit a whole slice of stream edges into the
// windowed graph with one amortized eviction/statistics pass, fan the
// read-only candidate searches out over a worker pool, then merge the
// per-edge results back single-threaded in input order. The pool belongs
// to a standalone Engine.ProcessBatch; under a multi-query driver each
// engine runs only the merge, searching live (Engine.searchShared).
//
// The paper's engine (Algorithm 1) is strictly edge-at-a-time; batching
// is the standard lever once exact incremental semantics are in place
// (StreamWorks, Choudhury et al. 2013; Zervakis et al. 2019). Two
// mechanisms keep the batch path's match sets identical to the serial
// loop:
//
//   - Visibility. Every graph edge carries an arrival sequence number,
//     and each candidate search is bounded by its anchor edge's Seq
//     (iso.Matcher.MaxSeq), so a search anchored at batch edge i sees
//     exactly the graph a serial run would have seen when i arrived,
//     even though later batch edges are already present.
//   - Ordering. All SJ-Tree mutation — lazy gating, retrospective
//     repair, joins — happens in a sequential merge phase that consumes
//     the precomputed candidates in input order. The parallel phase is
//     read-only on the graph and engine.
//
// Equivalence is exact when timestamps are non-decreasing and no
// load-shedding cap (MaxMatchesPerSearch, MaxWorkPerEdge,
// MaxStepsPerSearch) is active. With a cap, both paths are best-effort
// and may shed different work because candidate enumeration order
// differs. With out-of-order timestamps, serial results are already
// eviction-cadence-dependent (the EvictEvery slack of
// graph.ExpireBefore); there the batch path's lazier eviction reports
// a window-valid superset of the serial matches, never fewer — see
// Engine.advanceEvict.
package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/stream"
)

// ProcessBatch folds a whole batch of stream edges into the graph and
// returns the new complete matches per input edge: out[i] holds exactly
// the matches a serial ProcessEdge(batch[i]) call would have returned
// at that point in the stream. Eviction and adaptive statistics are
// amortized to one pass per batch; the candidate searches fan out over
// Config.BatchWorkers workers.
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
// fanned-out search.
func (e *Engine) processSubBatch(batch []stream.Edge) [][]iso.Match {
	e.advanceEvict(len(batch))
	des := e.ingestBatch(batch)
	return e.searchBatch(des, e.batchWorkers())
}

// processBatchAdaptive runs the batch pipeline for adaptive engines by
// splitting the batch at re-decomposition boundaries: within a run no
// recompute can fire, so candidates precomputed against the current
// leaves stay valid. The serial schedule observes each edge into the
// period collector and fires the recompute on the edge that fills the
// period, after that edge is ingested but before it is searched — the
// split reproduces exactly that: edges before the trigger are searched
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

func (e *Engine) batchWorkers() int {
	if e.cfg.BatchWorkers > 0 {
		return e.cfg.BatchWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// runSearchTasks executes n independent read-only searches across the
// worker pool and returns their results indexed by task, so the output
// is deterministic regardless of scheduling. Each worker owns a private
// matcher; with one worker (or one task) everything runs inline on the
// engine's own matcher.
func (e *Engine) runSearchTasks(n, workers int, fn func(m *iso.Matcher, task int) []iso.Match) [][]iso.Match {
	res := e.arena.rowBuf(n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		saved := e.matcher.MaxSeq
		for t := 0; t < n; t++ {
			res[t] = fn(e.matcher, t)
		}
		e.matcher.MaxSeq = saved
		return res
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			m := e.newMatcher()
			defer func() { atomic.AddInt64(&e.batchSteps, m.Calls()) }()
			for {
				t := int(next.Add(1)) - 1
				if t >= n {
					return
				}
				res[t] = fn(m, t)
			}
		}()
	}
	wg.Wait()
	return res
}

// searchShared is the batch step of an engine under a multi-query
// driver (MultiEngine, ParallelMulti and, through them, every shard and
// remote worker), run after the driver's shared-graph ingest: the live,
// lazy-gated, MaxSeq-bounded merge on the engine's own pooled matcher.
// It never takes the speculative pool, whatever Config.BatchWorkers
// says: with several queries per batch the search phase is a minority of
// the work, and a nested pool per query costs goroutines, throwaway
// matchers and unpooled candidates every batch for searches the lazy
// gate would mostly skip. Recycling the previous results and the arena
// here is safe: the driver has drained the previous batch's rows before
// it offers the next.
func (e *Engine) searchShared(des []graph.Edge) [][]iso.Match {
	e.recycleResults()
	e.arena.begin()
	return e.searchBatch(des, 1)
}

// searchBatch runs the incremental search for a batch of edges already
// present in the graph and returns the per-edge complete matches. The
// candidate searches (read-only) run on the worker pool; tree mutation
// runs single-threaded afterwards, in input order.
func (e *Engine) searchBatch(des []graph.Edge, workers int) [][]iso.Match {
	out := e.arena.rowBuf(len(des))
	switch e.cfg.Strategy {
	case StrategyVF2:
		cands := e.runSearchTasks(len(des), workers, func(m *iso.Matcher, t int) []iso.Match {
			m.MaxSeq = des[t].Seq
			var res []iso.Match
			for _, mt := range m.FindAll(e.allEdges) {
				if mt.HasEdge(des[t].ID) {
					res = append(res, mt)
				}
			}
			return res
		})
		e.finishBaseline(out, cands)
	case StrategyIncIso:
		cands := e.runSearchTasks(len(des), workers, func(m *iso.Matcher, t int) []iso.Match {
			m.MaxSeq = des[t].Seq
			return m.FindAroundEdge(e.allEdges, des[t])
		})
		e.finishBaseline(out, cands)
	default:
		e.searchBatchTree(des, workers, out)
	}
	return out
}

// finishBaseline adopts per-edge baseline results, updating counters.
func (e *Engine) finishBaseline(out, cands [][]iso.Match) {
	for i, ms := range cands {
		e.stats.EdgesProcessed++
		e.stats.CompleteMatches += int64(len(ms))
		out[i] = ms
	}
}

// searchBatchTree is the decomposition-strategy batch path: precompute
// the anchored leaf matches for every (edge, leaf) pair in parallel,
// then replay the serial per-edge merge (lazy gating, retrospective
// repair, SJ-Tree joins) against the cached candidates. Lazy strategies
// compute candidates speculatively — the merge discards the ones the
// serial gate would never have searched — trading extra parallel search
// work for a mutation phase that never blocks on a search. Speculation
// only pays when it actually runs concurrently, so with a single worker
// the merge searches live instead (MaxSeq-bounded, lazy gate applied
// before searching): on one core a batch is then never slower than the
// serial loop, just amortized.
//
// Speculation is itself gated: a (edge, leaf) pair whose single-edge
// leaf is disabled at BOTH endpoints when the batch starts would be
// skipped outright by the serial gate, so searching it speculatively is
// pure waste — and before this estimate the batch path searched every
// such pair, doing strictly more work than the serial loop it
// parallelizes. Lazy enablement bits only accrete during a batch
// (eviction clears them strictly before ingest), so a pair skipped by
// the batch-start estimate is either still disabled at merge time
// (serial gate skips it too) or was enabled mid-batch, in which case
// the merge detects the missing precompute via the have mask and runs
// the search live at the exact MaxSeq the candidate would have had.
// Multi-edge leaves are always searched: their matches can touch an
// enabled vertex beyond the new edge's endpoints (see processTree).
func (e *Engine) searchBatchTree(des []graph.Edge, workers int, out [][]iso.Match) {
	nl := e.tree.NumLeaves()
	speculate := workers > 1 && len(des) > 1
	var cands [][]iso.Match
	var have []bool
	if speculate && e.lazy {
		have = e.arena.flagBuf(len(des) * nl)
		tasks := e.arena.intBuf(len(have))
		for i, de := range des {
			for l := 0; l < nl; l++ {
				if l > 0 && len(e.tree.LeafEdges(l)) == 1 &&
					!e.enabled(de.Src, l) && !e.enabled(de.Dst, l) {
					continue
				}
				have[i*nl+l] = true
				tasks = append(tasks, i*nl+l)
			}
		}
		cands = e.arena.rowBuf(len(des) * nl)
		res := e.runSearchTasks(len(tasks), workers, func(m *iso.Matcher, t int) []iso.Match {
			i, l := tasks[t]/nl, tasks[t]%nl
			m.MaxSeq = des[i].Seq
			return m.FindAroundEdge(e.tree.LeafEdges(l), des[i])
		})
		for t, slot := range tasks {
			cands[slot] = res[t]
		}
	} else if speculate {
		cands = e.runSearchTasks(len(des)*nl, workers, func(m *iso.Matcher, t int) []iso.Match {
			i, l := t/nl, t%nl
			m.MaxSeq = des[i].Seq
			return m.FindAroundEdge(e.tree.LeafEdges(l), des[i])
		})
	}
	for i, de := range des {
		e.stats.EdgesProcessed++
		start := len(e.curResults)
		e.curEdge = de.ID
		// Bound every search the merge issues on the engine's own
		// matcher — live leaf searches and retrospective repair alike —
		// to this edge's point in time.
		e.matcher.MaxSeq = de.Seq
		if e.cfg.MaxWorkPerEdge > 0 {
			e.budget.Remaining = e.cfg.MaxWorkPerEdge
			e.tree.Budget = &e.budget
		}
		if speculate {
			var hv []bool
			if have != nil {
				hv = have[i*nl : (i+1)*nl]
			}
			e.mergeTree(de, cands[i*nl:(i+1)*nl], hv)
		} else {
			e.mergeTree(de, nil, nil)
		}
		// A row is the edge's stretch of curResults. Growth moves the
		// list, not the rows already cut: those keep the array they were
		// cut from, and the match values in it.
		if end := len(e.curResults); end > start {
			out[i] = e.curResults[start:end:end]
			e.stats.CompleteMatches += int64(end - start)
		}
	}
	e.matcher.MaxSeq = 0
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
// match is copied, so a batch costs the arena two takes and the heap
// nothing.
func (m *MultiEngine) processBatch(ses []stream.Edge) (rows [][]NamedMatch, flat []NamedMatch) {
	if len(ses) == 0 {
		return nil, nil
	}
	m.arena.begin()
	kept := ses
	var keptIdx []int // nil when the filter admits the whole batch
	if !m.filter.Universal() {
		// Scan before copying: a batch the filter fully admits — the
		// common case for a shard whose footprint covers the stream's
		// hot types — must not allocate on the ingest path.
		rejects := false
		for _, se := range ses {
			if !m.admits(se) {
				rejects = true
				break
			}
		}
		if rejects {
			kept = nil
			for i, se := range ses {
				if m.admits(se) {
					kept = append(kept, se)
					keptIdx = append(keptIdx, i)
				}
			}
		}
	}
	rows = m.arena.namedBuf(len(ses))
	if len(kept) == 0 {
		return rows, nil
	}
	des := m.ingestBatch(kept)
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
			pos := i
			if keptIdx != nil {
				pos = keptIdx[i]
			}
			rows[pos] = flat[start:off:off]
		}
	}
	return rows, flat
}

// ingestBatch admits a batch into the shared graph with one amortized
// eviction (run up front so the cutoff never gets ahead of the serial
// schedule's), returning the materialized edges in input order.
func (m *MultiEngine) ingestBatch(ses []stream.Edge) []graph.Edge {
	m.advanceEvict(len(ses))
	m.edgesSeen += int64(len(ses))
	m.stored += int64(len(ses))
	des := m.arena.edgeBuf(len(ses))
	for i, se := range ses {
		des[i] = ingestOne(m.g, se)
	}
	return des
}
