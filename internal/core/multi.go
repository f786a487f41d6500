package core

import (
	"fmt"
	"slices"
	"sort"
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

	evictEvery int
	sinceEvict int
	edgesSeen  int64

	// filter is the replica filter: the set of edge types ingestion
	// admits, over the shared graph's interner. It defaults to
	// universal (admit everything); the sharded runtime narrows it to
	// the union edge-type footprint of the engine's queries, making the
	// shared graph a filtered replica. See SetReplicaFilter.
	filter graph.TypeSet
	stored int64 // cumulative edges admitted into the graph

	// Optional observability hook (SetEdgeLatency): every latEvery-th
	// ProcessEdge call is timed into edgeLat. nil means no timing at
	// all — the default, so unmonitored deployments pay nothing.
	edgeLat  *metrics.AtomicHistogram
	latEvery int64
	latN     int64

	// Batch-path scratch, reused across batches: the arena backs the
	// shared ingest buffer and per-edge result rows, pq the per-query
	// result table (see batchArena for the ownership contract), keptIdx
	// the batch positions of the edges the replica filter admitted.
	arena   batchArena
	pq      [][][]iso.Match
	keptIdx []int32

	resBindings []PortableBinding // ResolveMatch's buffers (see there)
	resEdges    []PortableMatchEdge
}

// MultiConfig parameterizes a MultiEngine.
type MultiConfig struct {
	// Window is tW, shared by every registered query.
	Window int64
	// EvictEvery controls eviction frequency (default 256 edges).
	EvictEvery int
}

// NamedMatch pairs a complete match with the query that produced it.
type NamedMatch struct {
	Query string
	Match iso.Match
}

// NewMulti returns an empty multi-query engine.
func NewMulti(cfg MultiConfig) *MultiEngine {
	if cfg.EvictEvery <= 0 {
		cfg.EvictEvery = 256
	}
	return &MultiEngine{
		g:          graph.New(),
		window:     cfg.Window,
		queries:    make(map[string]*Engine),
		evictEvery: cfg.EvictEvery,
		filter:     graph.UniversalTypes(),
	}
}

// SetReplicaFilter restricts subsequent ingestion to edges whose type
// is one of types: everything else is dropped before touching the
// graph or any query's search — the engine becomes a
// filtered replica of the stream. universal re-admits every type
// (types is then ignored). The caller is responsible for only
// filtering when every registered query's edge-type footprint is
// covered (see query.Graph.TypeFootprint); the sharded runtime
// maintains exactly that invariant, backfilling via Backfill when a
// registration widens the footprint and trimming via TrimReplica when
// an unregistration narrows it.
//
// Match-set exactness under a covering filter follows from the matcher
// being type-respecting — it can never bind an edge outside a query's
// footprint — plus the eviction-slack argument of Engine.advanceEvict:
// a filtered engine processes fewer edges, so it evicts later, which
// with non-decreasing timestamps only retains extra memory, never
// changes complete matches. Retrospective (lazy) repairs run at the
// next admitted edge instead of the next stream edge, which shifts
// when a match is reported but not whether.
func (m *MultiEngine) SetReplicaFilter(types []string, universal bool) {
	if universal {
		m.filter = graph.UniversalTypes()
		return
	}
	ids := make([]graph.TypeID, len(types))
	for i, tp := range types {
		ids[i] = graph.TypeID(m.g.Types().Intern(tp))
	}
	m.filter = graph.NewTypeSet(ids...)
}

// ReplicaView returns the shared graph seen through the replica
// filter. With a universal filter it is simply the whole graph; with a
// narrowed filter its edge set is what the replica is contracted to
// hold.
func (m *MultiEngine) ReplicaView() graph.View { return m.g.ViewTypes(m.filter) }

// EdgesStored reports the cumulative number of edges admitted into the
// shared graph (filtered ingest plus backfill) — the replication-cost
// metric the shard experiment sums across shards.
func (m *MultiEngine) EdgesStored() int64 { return m.stored }

// admits reports whether the replica filter accepts the edge.
func (m *MultiEngine) admits(se stream.Edge) bool {
	if m.filter.Universal() {
		return true
	}
	id, ok := m.g.Types().Lookup(se.Type)
	return ok && m.filter.Has(graph.TypeID(id))
}

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
		ingestOne(m.g, se)
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
	if m.filter.Universal() {
		return 0
	}
	var drop []graph.EdgeID
	m.g.EachEdge(func(e graph.Edge) bool {
		if !m.filter.Has(e.Type) {
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
// engine's graph and window are overridden to the shared ones.
func (m *MultiEngine) Register(name string, q *query.Graph, cfg Config) error {
	if _, dup := m.queries[name]; dup {
		return fmt.Errorf("core: query %q already registered", name)
	}
	cfg.Window = m.window
	if cfg.Stats == nil && cfg.Leaves == nil && cfg.Strategy.Decomposes() {
		cfg.Stats = m.Statistics()
	}
	eng, err := New(q, cfg)
	if err != nil {
		return err
	}
	// Rebind the engine to the shared graph. Existing edges are not
	// retroactively searched: a freshly registered query sees matches
	// whose last edge arrives after registration, plus anything its
	// lazy repair reaches in the existing neighborhood.
	eng.g = m.g
	eng.matcher = eng.newMatcher()
	if eng.tree != nil {
		eng.matcher.Pool = eng.tree.Pool()
	}
	eng.external = true
	m.queries[name] = eng
	m.order = append(m.order, name)
	m.engines = append(m.engines, eng)
	return nil
}

// RegisterWithBackfill registers a query and then replays every live
// edge of the shared graph through it, so patterns that already
// partially (or fully) exist are tracked immediately. It returns the
// complete matches found among the existing edges. The SJ-Tree's
// insert path is arrival-order-robust, so arena replay order is
// sufficient. Cost is O(live edges).
func (m *MultiEngine) RegisterWithBackfill(name string, q *query.Graph, cfg Config) ([]iso.Match, error) {
	if err := m.Register(name, q, cfg); err != nil {
		return nil, err
	}
	eng := m.queries[name]
	var initial []iso.Match
	m.g.EachEdge(func(de graph.Edge) bool {
		// Each replayed edge ends the lifetime of the previous one's
		// results; what is returned must outlive them all.
		for _, mt := range eng.processShared(de) {
			initial = append(initial, mt.Clone())
		}
		return true
	})
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

// ingest adds one stream edge to the shared graph and runs eviction,
// returning the materialized edge.
func (m *MultiEngine) ingest(se stream.Edge) graph.Edge {
	m.edgesSeen++
	de := ingestOne(m.g, se)
	m.stored++
	m.advanceEvict(1)
	return de
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
	if !m.admits(se) {
		return nil
	}
	de := m.ingest(se)
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

// advanceEvict advances the shared eviction clock by n processed edges
// and sweeps when the cadence fires. The batch path calls it before
// ingesting so the cutoff stays behind every serial mid-batch cutoff
// (see Engine.advanceEvict for why that preserves match sets).
func (m *MultiEngine) advanceEvict(n int) {
	if m.window <= 0 {
		return
	}
	m.sinceEvict += n
	if m.sinceEvict < m.evictEvery {
		return
	}
	m.sinceEvict = 0
	sweep(m.g, m.g.LastTS()-m.window+1, m.engines...)
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
	// PoolFresh allocated new arrays (the rest were recycled).
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

// TopQueriesByStored returns query names ordered by live partial-match
// count, heaviest first — an operator view of memory pressure.
func (m *MultiEngine) TopQueriesByStored() []string {
	names := append([]string(nil), m.order...)
	sort.Slice(names, func(i, j int) bool {
		si, sj := int64(0), int64(0)
		if t := m.queries[names[i]].tree; t != nil {
			si = t.Stats().Stored
		}
		if t := m.queries[names[j]].tree; t != nil {
			sj = t.Stats().Stored
		}
		if si != sj {
			return si > sj
		}
		return names[i] < names[j]
	})
	return names
}
