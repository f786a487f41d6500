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
	out := make([]QueryMatch, 0, len(initial))
	for _, mt := range initial {
		out = append(out, QueryMatch{Query: name, Match: m.resolve(core.NamedMatch{Query: name, Match: mt})})
	}
	return out, nil
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
// all registered queries.
func (m *Monitor) Process(se Edge) []QueryMatch {
	named := m.inner.ProcessEdge(se)
	if len(named) == 0 {
		return nil
	}
	out := make([]QueryMatch, 0, len(named))
	for _, nm := range named {
		out = append(out, QueryMatch{Query: nm.Query, Match: m.resolve(nm)})
	}
	return out
}

// ProcessBatch ingests a whole batch of edges — one shared statistics
// pass and one amortized eviction — and returns the matches it
// completed across all registered queries, edge-major in registration
// order (the order a serial Process loop reports).
func (m *Monitor) ProcessBatch(edges []Edge) []QueryMatch {
	named := m.inner.ProcessBatch(edges)
	if len(named) == 0 {
		return nil
	}
	out := make([]QueryMatch, 0, len(named))
	for _, nm := range named {
		out = append(out, QueryMatch{Query: nm.Query, Match: m.resolve(nm)})
	}
	return out
}

func (m *Monitor) resolve(nm core.NamedMatch) Match {
	out := Match{FirstTS: nm.Match.MinTS, LastTS: nm.Match.MaxTS}
	out.Bindings, out.Edges = m.inner.ResolveMatch(nm)
	return out
}
