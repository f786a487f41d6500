package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/metrics"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

// MultiEngine runs many registered continuous queries over one shared
// windowed data graph: the stream is ingested once, every query's
// SJ-Tree searches around each new edge, and eviction maintains the
// shared graph plus each query's partial-match tables. This is the
// deployment mode the paper's introduction describes — "register a
// pattern as a graph query and continuously perform the query on the
// data graph as it evolves".
//
// The engine keeps no statistics: the per-edge path touches no
// collector, and a query registered without Config.Stats or
// Config.Leaves is decomposed from the window's, computed from the
// shared graph when Register asks (see Statistics).
type MultiEngine struct {
	g      *graph.Graph
	window int64

	queries map[string]*Engine
	order   []string  // registration order for deterministic dispatch
	engines []*Engine // queries[order[i]], the list a sweep prunes

	clock     sweepClock
	edgesSeen int64
	evicted   int64 // graph edges swept

	// adm holds the replica filter: the set of edge types ingestion
	// admits, over the shared graph's interner. It defaults to
	// universal (admit everything); the sharded runtime narrows it to
	// the union edge-type footprint of the engine's queries, making the
	// shared graph a filtered replica. See SetReplicaFilter.
	adm    admission
	stored int64 // cumulative edges admitted into the graph

	// Optional observability hook (SetEdgeLatency): every latEvery-th
	// ProcessEdge call is timed into edgeLat. nil means no timing at
	// all — the default, so unmonitored deployments pay nothing.
	edgeLat  *metrics.AtomicHistogram
	latEvery int64
	latN     int64

	// Batch-path scratch, reused across batches: the arena backs the
	// shared ingest buffer and per-edge result rows, pq the per-query
	// result table (see batchArena for the ownership contract).
	arena batchArena
	pq    [][][]iso.Match

	resBindings []PortableBinding // ResolveMatch's buffers (see there)
	resEdges    []PortableMatchEdge
}

// MultiConfig parameterizes a MultiEngine.
type MultiConfig struct {
	// Window is tW, shared by every registered query.
	Window int64
}

// NamedMatch pairs a complete match with the query that produced it.
type NamedMatch struct {
	Query string
	Match iso.Match
}

// NewMulti returns an empty multi-query engine.
func NewMulti(cfg MultiConfig) *MultiEngine {
	return &MultiEngine{
		g:       graph.New(),
		window:  cfg.Window,
		queries: make(map[string]*Engine),
		clock:   sweepClock{window: cfg.Window, seen: math.MinInt64, cut: math.MinInt64},
		adm:     admission{types: graph.UniversalTypes()},
	}
}

// SetReplicaFilter restricts subsequent ingestion to edges whose type
// is one of types: everything else is dropped before touching the
// graph or any query's search — the engine becomes a
// filtered replica of the stream. universal re-admits every type
// (types is then ignored). The filter is the set of the admission every
// engine ingests through (a standalone Engine's is its query's
// footprint), so the check costs one interner probe per edge either
// way. The caller is responsible for only
// filtering when every registered query's edge-type footprint is
// covered (see query.Graph.TypeFootprint); the sharded runtime
// maintains exactly that invariant, backfilling via Backfill when a
// registration widens the footprint and trimming via TrimReplica when
// an unregistration narrows it.
//
// Match-set exactness under a covering filter follows from the matcher
// being type-respecting — it can never bind an edge outside a query's
// footprint. The edges the filter drops do not move the sweep clock: the
// replica's window is that of the edges it admits, as for a replica of
// the sharded runtime, which is never offered the edges its router gates
// away. With non-decreasing timestamps it still sweeps at the cutoffs of
// an engine storing everything, each at its next admitted edge
// (sweepClock). Retrospective (lazy) repairs run at the next admitted
// edge instead of the next stream edge, which shifts when a match is
// reported but not whether.
func (m *MultiEngine) SetReplicaFilter(types []string, universal bool) {
	if universal {
		m.adm.types = graph.UniversalTypes()
		return
	}
	ids := make([]graph.TypeID, len(types))
	for i, tp := range types {
		ids[i] = graph.TypeID(m.g.Types().Intern(tp))
	}
	m.adm.types = graph.NewTypeSet(ids...)
}

// ReplicaView returns the shared graph seen through the replica
// filter. With a universal filter it is simply the whole graph; with a
// narrowed filter its edge set is what the replica is contracted to
// hold.
func (m *MultiEngine) ReplicaView() graph.View { return m.g.ViewTypes(m.adm.types) }

// EdgesStored reports the cumulative number of edges admitted into the
// shared graph (filtered ingest plus backfill) — the replication-cost
// metric the shard experiment sums across shards.
func (m *MultiEngine) EdgesStored() int64 { return m.stored }

// Backfill admits edges into the shared graph without running any
// query's search, bypassing the replica filter. The
// sharded runtime replays the shared edge log through it when a
// registration widens a replica's footprint: the edges existed in the
// stream's past, so they must exist in the replica, but — exactly as
// with MultiEngine.Register on a full graph — they are not
// retroactively searched.
func (m *MultiEngine) Backfill(ses []stream.Edge) {
	if len(ses) == 0 {
		return
	}
	for _, se := range ses {
		ingestOne(m.g, se, graph.TypeID(m.g.Types().Intern(se.Type)))
		m.stored++
	}
	// The backfilled edges are older than what the graph already holds;
	// put the eviction FIFO back into timestamp order so they expire
	// when a serial ingest of the same edges would have expired them.
	m.g.NormalizeEvictionOrder()
}

// TrimReplica removes every live edge whose type the replica filter no
// longer admits, returning how many were dropped. The sharded runtime
// calls it after an unregistration narrows the footprint; the dropped
// types are disjoint from every remaining query's footprint, so no
// partial-match state can reference the removed edges.
func (m *MultiEngine) TrimReplica() int {
	if m.adm.types.Universal() {
		return 0
	}
	var drop []graph.EdgeID
	m.g.EachEdge(func(e graph.Edge) bool {
		if !m.adm.types.Has(e.Type) {
			drop = append(drop, e.ID)
		}
		return true
	})
	for _, id := range drop {
		m.g.RemoveEdge(id)
	}
	if len(drop) > 0 {
		// The removals punched holes in the middle of the eviction
		// FIFO; rebuild it so no stale entry can alias a recycled edge
		// slot and stall the eviction walk (see NormalizeEvictionOrder).
		m.g.NormalizeEvictionOrder()
	}
	return len(drop)
}

// Graph exposes the shared data graph (read-only use).
func (m *MultiEngine) Graph() *graph.Graph { return m.g }

// Statistics computes the statistics of the window now: a collector
// built from the shared graph's edges with ts >= LastTS - Window + 1
// (selectivity.FromGraph; every live edge when Window is 0), so edges
// past the window but not swept yet do not count. Each call is a pass
// over the live edges and returns a collector of the caller's own. It
// is what a query registered with neither Config.Stats nor
// Config.Leaves is decomposed from.
func (m *MultiEngine) Statistics() *selectivity.Collector {
	return selectivity.FromGraph(m.ReplicaView(), selectivity.WindowCutoff(m.g.LastTS(), m.window))
}

// Register adds a continuous query under a unique name. A tree strategy
// is decomposed from Config.Leaves or Config.Stats when cfg brings
// either, and from the window's statistics (Statistics) otherwise. The
// engine's window is overridden to the shared one. Existing edges are
// not retroactively searched (see RegisterWithBackfill). Config.Adaptive
// is refused: nothing here feeds its statistics; New takes it.
func (m *MultiEngine) Register(name string, q *query.Graph, cfg Config) error {
	if cfg.Adaptive != nil {
		return fmt.Errorf("core: query %q: adaptive queries (Config.Adaptive) run standalone only", name)
	}
	if cfg.Stats == nil && cfg.Leaves == nil && cfg.Strategy.Decomposes() {
		cfg.Stats = m.Statistics()
	}
	_, err := m.register(name, q, cfg)
	return err
}

// register adds query q's engine over the shared graph under name.
func (m *MultiEngine) register(name string, q *query.Graph, cfg Config) (*Engine, error) {
	if _, dup := m.queries[name]; dup {
		return nil, fmt.Errorf("core: query %q already registered", name)
	}
	cfg.Window = m.window
	eng, err := newEngine(m.g, q, cfg)
	if err != nil {
		return nil, err
	}
	m.queries[name] = eng
	m.order = append(m.order, name)
	m.engines = append(m.engines, eng)
	return eng, nil
}

// Solo makes the one query registered on m a standalone engine, as New
// does: m's replica filter becomes the query's footprint and m its host,
// driven through the engine from then on. persist.Load uses it.
func (m *MultiEngine) Solo() (*Engine, error) {
	if len(m.engines) != 1 {
		return nil, fmt.Errorf("core: a standalone engine runs one query, the MultiEngine holds %d", len(m.engines))
	}
	e := m.engines[0]
	types, exact := e.q.TypeFootprint()
	m.SetReplicaFilter(types, !exact)
	e.host = m
	return e, nil
}

// RegisterWithBackfill registers a query and then replays every live
// edge of the shared graph through it, so patterns that already
// partially (or fully) exist are tracked immediately. It returns the
// complete matches found among the existing edges, each once: the
// replay is the batch search over the live edges in arrival order, so a
// match is found at its last edge only. Cost is O(live edges).
func (m *MultiEngine) RegisterWithBackfill(name string, q *query.Graph, cfg Config) ([]iso.Match, error) {
	if err := m.Register(name, q, cfg); err != nil {
		return nil, err
	}
	var live []graph.Edge
	m.g.EachEdge(func(de graph.Edge) bool {
		live = append(live, de)
		return true
	})
	slices.SortFunc(live, func(a, b graph.Edge) int { return cmp.Compare(a.Seq, b.Seq) })
	var initial []iso.Match // cloned: the engine's next call reuses its results
	for _, row := range m.queries[name].searchShared(live) {
		for _, mt := range row {
			initial = append(initial, mt.Clone())
		}
	}
	return initial, nil
}

// Unregister removes a query and its partial-match state.
func (m *MultiEngine) Unregister(name string) {
	if _, ok := m.queries[name]; !ok {
		return
	}
	delete(m.queries, name)
	for i, n := range m.order {
		if n == name {
			m.order = append(m.order[:i], m.order[i+1:]...)
			m.engines = append(m.engines[:i], m.engines[i+1:]...)
			break
		}
	}
}

// Registered returns the registered query names in registration order.
func (m *MultiEngine) Registered() []string {
	return append([]string(nil), m.order...)
}

// QueryEngine returns the per-query engine (for stats inspection).
func (m *MultiEngine) QueryEngine(name string) *Engine { return m.queries[name] }

// PortableBinding is one resolved vertex of a portable match: query
// vertex name to data vertex name.
type PortableBinding struct {
	QueryVertex, DataVertex string
}

// PortableMatchEdge is one resolved edge of a portable match.
type PortableMatchEdge struct {
	QueryEdge      int // index into the query's edge list
	Src, Dst, Type string
	TS             int64
}

// ResolveMatch resolves an engine match into portable name-based form
// against the shared graph now, while the bound edges are certainly
// still live, through the one walk every emitter shares (AppendResolved),
// which keeps match output byte-identical across topologies. It returns
// capacity-clipped views of two buffers the engine keeps, valid until
// its next ResolveMatch: a caller that keeps a result copies it.
func (m *MultiEngine) ResolveMatch(nm NamedMatch) (bindings []PortableBinding, edges []PortableMatchEdge) {
	m.resBindings, m.resEdges = AppendResolved(m.g, m.queries[nm.Query].q, m.resBindings[:0], m.resEdges[:0], nm.Match)
	return slices.Clip(m.resBindings), slices.Clip(m.resEdges)
}

// AppendResolved is the resolve walk: it appends the bindings and edges
// of mt, a match of query q over g, onto caller-owned slices. A caller
// that resolves many matches at once sizes one slab of each kind
// (len(VertexOf) and len(EdgeOf) bound what one match appends) and cuts
// the matches out of them, and one that resolves a run of matches of the
// same query looks the query up once (MultiEngine.QueryEngine).
func AppendResolved(g *graph.Graph, q *query.Graph, bindings []PortableBinding, edges []PortableMatchEdge, mt iso.Match) ([]PortableBinding, []PortableMatchEdge) {
	for qv, dv := range mt.VertexOf {
		if dv == graph.NoVertex {
			continue
		}
		bindings = append(bindings, PortableBinding{
			QueryVertex: q.Vertices[qv].Name,
			DataVertex:  g.VertexName(dv),
		})
	}
	for qe, eid := range mt.EdgeOf {
		de, ok := g.Edge(eid)
		if !ok {
			continue
		}
		edges = append(edges, PortableMatchEdge{
			QueryEdge: qe,
			Src:       g.VertexName(de.Src),
			Dst:       g.VertexName(de.Dst),
			Type:      g.Types().Name(uint32(de.Type)),
			TS:        de.TS,
		})
	}
	return bindings, edges
}

// SetEdgeLatency attaches a histogram that samples the wall-clock cost
// of ProcessEdge: every sampleEvery-th call is timed (1 times every
// call; <= 0 detaches). Sampling keeps the two time.Now reads off most
// edges when the caller wants tail visibility at minimal overhead; the
// recording itself is lock- and allocation-free.
func (m *MultiEngine) SetEdgeLatency(h *metrics.AtomicHistogram, sampleEvery int) {
	if h == nil || sampleEvery <= 0 {
		m.edgeLat, m.latEvery, m.latN = nil, 0, 0
		return
	}
	m.edgeLat, m.latEvery, m.latN = h, int64(sampleEvery), 0
}

// ProcessEdge ingests one stream edge into the shared graph and runs
// every registered query's incremental search around it. An edge the
// replica filter rejects is dropped whole: no graph mutation, no
// search. The result is arena-backed and its matches
// belong to the query engines: valid until the next result-returning
// call on this engine (see batchArena).
func (m *MultiEngine) ProcessEdge(se stream.Edge) []NamedMatch {
	if m.edgeLat != nil {
		m.latN++
		if m.latN >= m.latEvery {
			m.latN = 0
			start := time.Now()
			out := m.processEdge(se)
			m.edgeLat.RecordDuration(time.Since(start))
			return out
		}
	}
	return m.processEdge(se)
}

// processEdge is ProcessEdge without the latency sampling wrapper. It
// runs every query first and sizes the result from what they report, so
// an edge that completes matches costs one arena take.
func (m *MultiEngine) processEdge(se stream.Edge) []NamedMatch {
	de, ok := m.ingest(se)
	if !ok {
		return nil
	}
	m.arena.begin()
	perQuery := m.arena.rowBuf(len(m.engines))
	total := 0
	for qi, eng := range m.engines {
		perQuery[qi] = eng.processShared(de)
		total += len(perQuery[qi])
	}
	out := m.arena.namedFlat(total)
	off := 0
	for qi, name := range m.order {
		for _, mt := range perQuery[qi] {
			out[off] = NamedMatch{Query: name, Match: mt}
			off++
		}
	}
	return out
}

// ingest is the one per-edge ingest step, of MultiEngine.ProcessEdge
// and Engine.ProcessEdge: admission, ingest, the sweep clock and the
// sweep. An edge the replica filter drops changes nothing (ok false).
func (m *MultiEngine) ingest(se stream.Edge) (de graph.Edge, ok bool) {
	t, ok := m.adm.admit(m.g, se)
	if !ok {
		return graph.Edge{}, false
	}
	m.edgesSeen++
	m.stored++
	de = ingestOne(m.g, se, t)
	m.clock.offer(se.TS)
	m.maybeEvict()
	return de, true
}

// maybeEvict is the one sweep trigger (see sweepClock and sweep).
func (m *MultiEngine) maybeEvict() {
	if cutoff, ok := m.clock.due(); ok {
		m.sweep(cutoff)
	}
}

// sweep is the one window-maintenance pass: it expires the shared graph
// at cutoff and then prunes every engine searching it at the same
// cutoff. The order is what makes recycled IDs safe (see "ID lifetimes"
// in package graph): the graph pass frees the EdgeIDs of expired edges
// and the VertexIDs of the vertices left without an edge; before
// anything can reuse them, each engine drops every holder of such an ID
// — stored matches older than the cutoff (a surviving match binds only
// live edges, hence only vertices that kept one), and the lazy stamps
// and queued retrospective searches of vertices without an edge. A
// queue normally drains within the edge that filled it; it outlives one
// only after an adaptive migration or a checkpoint restore, and the
// batch path sweeps before it ingests, so without the last step such an
// item would be searched around whichever name took the slot. Dropping
// it loses nothing: a search around a vertex without an edge finds
// nothing.
//
// A sweep also marks each engine's result slab, so that its next Reset
// may cut back what a burst of complete matches grew (sjtree.Results);
// the matches the caller holds now are untouched.
func (m *MultiEngine) sweep(cutoff int64) {
	g := m.g
	m.evicted += int64(g.ExpireBefore(cutoff))
	for _, e := range m.engines {
		e.res.Swept()
		if e.tree != nil {
			e.tree.ExpireBefore(cutoff)
		}
		if !e.lazy {
			continue
		}
		kept := e.bitSet[:0]
		for _, v := range e.bitSet {
			if g.Degree(v) == 0 {
				unset(e.stamps(v))
			} else {
				kept = append(kept, v)
			}
		}
		e.bitSet = kept
		for l, items := range e.pending {
			live := items[:0]
			for _, it := range items {
				if g.Degree(it.v) > 0 {
					live = append(live, it)
				}
			}
			e.pending[l] = live
		}
	}
}

// FlushPending runs every registered query's queued retrospective
// (lazy) work now instead of on the next edge arrival, returning the
// complete matches it produces in registration order. A filtered
// replica uses it as the drain barrier at register/unregister/close
// points: the serial schedule drains pending repairs at the next
// stream edge, which a gated replica may never receive. The matches
// belong to the query engines, as ProcessEdge's do.
func (m *MultiEngine) FlushPending() []NamedMatch {
	var out []NamedMatch
	for _, name := range m.order {
		for _, mt := range m.queries[name].FlushPending() {
			out = append(out, NamedMatch{Query: name, Match: mt})
		}
	}
	return out
}

// MultiStats summarizes the shared engine state.
type MultiStats struct {
	EdgesProcessed int64
	Queries        int
	PartialMatches int64 // across all queries
}

// Stats returns a snapshot of shared counters.
func (m *MultiEngine) Stats() MultiStats {
	st := MultiStats{EdgesProcessed: m.edgesSeen, Queries: len(m.queries)}
	for _, eng := range m.queries {
		if eng.tree != nil {
			st.PartialMatches += eng.tree.Stats().Stored
		}
	}
	return st
}

// EngineCounters aggregates the per-query engine internals the
// observability layer exports as gauges: SJ-tree activity totals and
// the match-pool recycling balance. Like Stats, it must be read from
// the goroutine that owns the engine (in the sharded runtime, the
// worker publishes these into atomic gauges itself).
type EngineCounters struct {
	// SJ-tree totals summed across registered tree-strategy queries.
	TreeInserted, TreeDeduped, TreeEmitted, TreeEvicted, TreeStored int64
	// Match-pool balance: PoolGets matches handed out, of which
	// PoolFresh allocated new arrays (the rest were recycled). The pool
	// serves leaf candidates and interior join outputs; complete matches
	// are written into each engine's result slab and do not count.
	PoolGets, PoolFresh int64
}

// Counters sums SJ-tree statistics and match-pool counters across all
// registered queries.
func (m *MultiEngine) Counters() EngineCounters {
	var c EngineCounters
	for _, eng := range m.queries {
		if eng.tree == nil {
			continue
		}
		st := eng.tree.Stats()
		c.TreeInserted += st.Inserted
		c.TreeDeduped += st.Deduped
		c.TreeEmitted += st.Emitted
		c.TreeEvicted += st.Evicted
		c.TreeStored += st.Stored
		gets, fresh := eng.tree.Pool().Stats()
		c.PoolGets += gets
		c.PoolFresh += fresh
	}
	return c
}
