// Package streamgraph is a continuous subgraph pattern detection engine
// for streaming graphs, reproducing "A Selectivity based approach to
// Continuous Pattern Detection in Streaming Graphs" (Choudhury, Holder,
// Chin, Agarwal, Feo — EDBT 2015).
//
// Register a small pattern graph (a path, tree, star or cyclic query
// with typed edges and optionally labeled vertices) and feed the engine
// a stream of timestamped edges; the engine reports every subgraph of
// the evolving data graph isomorphic to the pattern whose timespan fits
// inside the sliding window, incrementally, as the last edge of the
// match arrives.
//
// The engine decomposes the query into small primitives ordered by
// selectivity estimated from the stream itself (1-edge histograms and
// 2-edge path distributions), tracks partial matches in a Subgraph Join
// Tree, and — under the lazy strategies — searches for a primitive only
// around vertices where the more selective prefix of the query has
// already been observed.
//
// Quick start:
//
//	q, _ := streamgraph.ParseQuery(`
//	    e attacker victim RemoteDesktop
//	    e victim server FileTransfer
//	`)
//	stats := streamgraph.NewStatistics()
//	for _, e := range trainingEdges {
//	    stats.Observe(e)
//	}
//	eng, _ := streamgraph.NewEngine(q, streamgraph.Options{
//	    Strategy:   streamgraph.Auto,
//	    Window:     3600,
//	    Statistics: stats,
//	})
//	for _, e := range liveEdges {
//	    for _, m := range eng.Process(e) {
//	        fmt.Println("match:", m)
//	    }
//	}
package streamgraph

import (
	"fmt"
	"slices"
	"strings"

	"streamgraph/internal/core"
	"streamgraph/internal/decompose"
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

// Edge is one element of the input stream: a directed, typed,
// timestamped edge between two named, labeled vertices.
type Edge = stream.Edge

// Query is a pattern graph. Build one with ParseQuery or PathQuery, or
// construct it directly.
type Query = query.Graph

// Wildcard is the vertex label that matches any data vertex.
const Wildcard = query.Wildcard

// ParseQuery parses the textual query format:
//
//	# comment
//	v <name> [label]
//	e <srcName> <dstName> <edgeType>
func ParseQuery(text string) (*Query, error) { return query.Parse(text) }

// PathQuery builds a directed path query with the given edge types and
// a uniform vertex label (use Wildcard for unlabeled queries).
func PathQuery(label string, types ...string) *Query { return query.NewPath(label, types...) }

// Strategy selects the query execution strategy.
type Strategy = core.Strategy

// The available strategies. Single and Path track every partial match
// under a 1-edge / 2-edge decomposition; the Lazy variants search a
// primitive only where the preceding primitive matched; VF2 is the
// non-incremental baseline; Auto picks between the lazy variants using
// the Relative Selectivity rule.
const (
	Single     = core.StrategySingle
	SingleLazy = core.StrategySingleLazy
	Path       = core.StrategyPath
	PathLazy   = core.StrategyPathLazy
	VF2        = core.StrategyVF2
	IncIso     = core.StrategyIncIso
	Auto       = core.StrategyAuto
)

// Statistics accumulates the subgraph distributional statistics (edge
// type histogram and 2-edge path distribution) that drive query
// decomposition. Feed it a sample of the stream before constructing
// the engine; it can keep observing afterwards for periodic
// re-decomposition.
type Statistics struct {
	c *selectivity.Collector
}

// NewStatistics returns an empty statistics collector.
func NewStatistics() *Statistics { return &Statistics{c: selectivity.NewCollector()} }

// Observe folds one edge into the statistics.
func (s *Statistics) Observe(e Edge) { s.c.Add(e) }

// ObserveAll folds a batch of edges into the statistics.
func (s *Statistics) ObserveAll(edges []Edge) { s.c.AddAll(edges) }

// EdgeSelectivity returns the observed selectivity of an edge type.
func (s *Statistics) EdgeSelectivity(edgeType string) float64 {
	return s.c.EdgeSelectivity(edgeType)
}

// Edges returns the number of observed edges.
func (s *Statistics) Edges() int64 { return s.c.EdgeTotal() }

// RelativeSelectivity computes ξ(T_path, T_single) for a query under
// these statistics; ok is false when it is undefined (an unseen
// primitive).
func (s *Statistics) RelativeSelectivity(q *Query) (xi float64, ok bool) {
	single, err := decompose.SingleDecompose(q, s.c)
	if err != nil {
		return 0, false
	}
	path, fellBack, err := decompose.PathDecompose(q, s.c)
	if err != nil || fellBack {
		return 0, false
	}
	xi, ok, err = s.c.RelativeSelectivity(q, path, single)
	return xi, ok && err == nil
}

// Options configures an Engine.
type Options struct {
	// Strategy to execute; Auto (the default zero value is Single —
	// prefer setting this explicitly) requires Statistics.
	Strategy Strategy
	// Window is tW in stream time units: a match is reported only when
	// the span between its earliest and latest edge is strictly less
	// than Window. Zero disables windowing (the graph grows without
	// bound).
	Window int64
	// Statistics drives the selectivity-ordered decomposition. Required
	// for every strategy except VF2 and IncIso (and for engines pinned
	// with Decomposition, which need no statistics at all).
	Statistics *Statistics
	// Decomposition, when non-nil, pins the SJ-Tree leaves instead of
	// computing them greedily — typically the Leaves of a PlanChoice
	// from Optimize. The Strategy still controls lazy vs
	// track-everything execution.
	Decomposition [][]int
	// MaxMatchesPerSearch caps the matches returned by a single
	// anchored search (safety valve; 0 = unlimited).
	MaxMatchesPerSearch int
	// BatchSize is the chunk size ProcessAll feeds to the batch
	// ingestion path (<= 1 processes edge-at-a-time). Batches amortize
	// window eviction; results are identical to serial processing.
	BatchSize int
}

// Binding is one vertex of a reported match: the query vertex name
// (QueryVertex) and the data vertex it was bound to (DataVertex).
type Binding = core.PortableBinding

// MatchedEdge is one edge of a reported match: the index into the
// query's edge list (QueryEdge), the data edge's endpoint names and type
// (Src, Dst, Type) and its timestamp (TS).
type MatchedEdge = core.PortableMatchEdge

// Match is a complete, window-respecting embedding of the query in the
// data graph. Every Match a call returns is the caller's for good.
type Match struct {
	Bindings []Binding
	Edges    []MatchedEdge
	// FirstTS and LastTS delimit τ(g), the match's timespan.
	FirstTS int64
	LastTS  int64
}

// slab is the memory one facade call resolves its matches into: one
// bindings and one edges array, sized up front for every match of the
// call, so the call allocates twice however many matches it returns.
// Each Match is a capacity-clipped window of the two, so appending to
// one cannot write into its neighbour, and no slab is reused.
type slab struct {
	bindings []Binding
	edges    []MatchedEdge
}

// resolve appends mt, a match of q over g, through the core resolve walk
// and returns its window.
func (s *slab) resolve(g *graph.Graph, q *Query, mt iso.Match) Match {
	b0, e0 := len(s.bindings), len(s.edges)
	s.bindings, s.edges = core.AppendResolved(g, q, s.bindings, s.edges, mt)
	return Match{Bindings: slices.Clip(s.bindings[b0:]), Edges: slices.Clip(s.edges[e0:]), FirstTS: mt.MinTS, LastTS: mt.MaxTS}
}

// String renders the match compactly.
func (m Match) String() string {
	parts := make([]string, len(m.Bindings))
	for i, b := range m.Bindings {
		parts[i] = b.QueryVertex + "=" + b.DataVertex
	}
	return fmt.Sprintf("{%s @%d..%d}", strings.Join(parts, " "), m.FirstTS, m.LastTS)
}

// Engine runs one continuous query over one edge stream.
type Engine struct {
	inner     *core.Engine
	q         *Query
	batchSize int
}

// NewEngine builds an engine for the query.
func NewEngine(q *Query, opts Options) (*Engine, error) {
	cfg := core.Config{
		Strategy:            opts.Strategy,
		Window:              opts.Window,
		Leaves:              opts.Decomposition,
		MaxMatchesPerSearch: opts.MaxMatchesPerSearch,
	}
	if opts.Statistics != nil {
		cfg.Stats = opts.Statistics.c
	}
	inner, err := core.New(q, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner, q: q, batchSize: opts.BatchSize}, nil
}

// Process folds one edge into the data graph and returns the complete
// matches it produced, the caller's for good (resolved into a slab).
func (e *Engine) Process(se Edge) []Match {
	return e.resolveAll(e.inner.ProcessEdge(se))
}

// ProcessBatch folds a whole batch of edges into the data graph — one
// amortized eviction pass, then the per-edge search in input order —
// and returns the complete matches in input order, the caller's for
// good: the concatenation of what per-edge Process calls would return.
func (e *Engine) ProcessBatch(edges []Edge) []Match {
	return e.resolveAll(e.inner.ProcessBatch(edges)...)
}

// ProcessAll streams a slice of edges through the engine in chunks of
// Options.BatchSize (edge-at-a-time when BatchSize <= 1), returning all
// completed matches in input order.
func (e *Engine) ProcessAll(edges []Edge) []Match {
	if e.batchSize <= 1 {
		var out []Match
		for _, se := range edges {
			out = append(out, e.Process(se)...)
		}
		return out
	}
	var out []Match
	for chunk := range slices.Chunk(edges, e.batchSize) {
		out = append(out, e.ProcessBatch(chunk)...)
	}
	return out
}

// resolveAll copies the engine-owned matches of one call, rows in
// order, into the public form: one slab for the call (every match of the
// query has its shape), bindings sorted by query vertex name.
func (e *Engine) resolveAll(rows ...[]iso.Match) []Match {
	n := 0
	for _, ms := range rows {
		n += len(ms)
	}
	if n == 0 {
		return nil
	}
	s := slab{make([]Binding, 0, n*len(e.q.Vertices)), make([]MatchedEdge, 0, n*len(e.q.Edges))}
	out := make([]Match, 0, n)
	for _, ms := range rows {
		for _, mt := range ms {
			m := s.resolve(e.inner.Graph(), e.q, mt)
			slices.SortFunc(m.Bindings, func(a, b Binding) int { return strings.Compare(a.QueryVertex, b.QueryVertex) })
			out = append(out, m)
		}
	}
	return out
}

// EngineStats is a snapshot of the engine's work counters.
type EngineStats struct {
	EdgesProcessed  int64
	CompleteMatches int64
	LeafSearches    int64
	PartialMatches  int64 // currently stored in the SJ-Tree
	PeakPartial     int64
	IsoSteps        int64
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats {
	st := e.inner.Stats()
	return EngineStats{
		EdgesProcessed:  st.EdgesProcessed,
		CompleteMatches: st.CompleteMatches,
		LeafSearches:    st.LeafSearches,
		PartialMatches:  st.Tree.Stored,
		PeakPartial:     st.Tree.PeakStored,
		IsoSteps:        st.IsoSteps,
	}
}

// Decomposition describes the SJ-Tree leaf order in effect.
func (e *Engine) Decomposition() string {
	t := e.inner.Tree()
	if t == nil {
		return "(none: baseline strategy)"
	}
	var parts []string
	for i := 0; i < t.NumLeaves(); i++ {
		var es []string
		for _, qe := range t.LeafEdges(i) {
			es = append(es, e.q.Edges[qe].Type)
		}
		parts = append(parts, "{"+strings.Join(es, ",")+"}")
	}
	return strings.Join(parts, " ⋈ ")
}
