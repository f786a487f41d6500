package streamgraph

import (
	"streamgraph/internal/core"
)

// Monitor runs many registered continuous queries over one shared
// windowed data graph: the stream is ingested once and every registered
// pattern is matched incrementally against it.
type Monitor struct {
	inner *core.MultiEngine
}

// MonitorOptions configures a Monitor.
type MonitorOptions struct {
	// Window is tW, shared by every registered query (0 = unbounded).
	Window int64
}

// NewMonitor returns an empty multi-query monitor.
func NewMonitor(opts MonitorOptions) *Monitor {
	return &Monitor{inner: core.NewMulti(core.MultiConfig{Window: opts.Window})}
}

// Register adds a continuous query under a unique name. The query is
// decomposed using the statistics the monitor has observed so far, with
// the given strategy (Auto picks by Relative Selectivity).
func (m *Monitor) Register(name string, q *Query, strategy Strategy) error {
	return m.inner.Register(name, q, core.Config{Strategy: strategy})
}

// RegisterWithBackfill registers a query and replays the live graph
// through it, returning matches already complete among existing edges.
func (m *Monitor) RegisterWithBackfill(name string, q *Query, strategy Strategy) ([]QueryMatch, error) {
	initial, err := m.inner.RegisterWithBackfill(name, q, core.Config{Strategy: strategy})
	if err != nil {
		return nil, err
	}
	named := make([]core.NamedMatch, len(initial))
	for i, mt := range initial {
		named[i] = core.NamedMatch{Query: name, Match: mt}
	}
	return m.resolveAll(named), nil
}

// Unregister removes a query and its partial-match state.
func (m *Monitor) Unregister(name string) {
	m.inner.Unregister(name)
}

// Registered returns the registered query names in registration order.
func (m *Monitor) Registered() []string { return m.inner.Registered() }

// QueryMatch pairs a complete match with the query that produced it.
type QueryMatch struct {
	Query string
	Match Match
}

// Process ingests one edge and returns the matches it completed across
// all registered queries, the caller's for good (resolved into a slab).
func (m *Monitor) Process(se Edge) []QueryMatch {
	return m.resolveAll(m.inner.ProcessEdge(se))
}

// ProcessBatch ingests a whole batch of edges — one shared statistics
// pass and one amortized eviction — and returns the matches it completed
// across all registered queries, the caller's for good, edge-major in
// registration order (the order a serial Process loop reports).
func (m *Monitor) ProcessBatch(edges []Edge) []QueryMatch {
	return m.resolveAll(m.inner.ProcessBatch(edges))
}

// resolveAll copies the engine-owned matches of one call into the public
// form, in one slab for the call.
func (m *Monitor) resolveAll(named []core.NamedMatch) []QueryMatch {
	if len(named) == 0 {
		return nil
	}
	nb, ne := 0, 0
	for _, nm := range named {
		nb, ne = nb+len(nm.Match.VertexOf), ne+len(nm.Match.EdgeOf)
	}
	s := slab{make([]Binding, 0, nb), make([]MatchedEdge, 0, ne)}
	out := make([]QueryMatch, len(named))
	for i, nm := range named {
		out[i] = QueryMatch{Query: nm.Query, Match: s.resolve(m.inner.Graph(), m.inner.QueryEngine(nm.Query).Query(), nm.Match)}
	}
	return out
}
