package core

import (
	"io"
	"runtime"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// ParallelMulti executes many registered continuous queries over one
// shared windowed graph with the per-query searches fanned out across a
// fixed worker pool. Ingestion stays single-writer (one edge enters the
// graph, statistics and eviction run on the caller's goroutine); the
// search phase is read-only on the graph, and every query engine is
// owned by exactly one worker, so its SJ-Tree and lazy bitmap are
// mutated single-threaded. The result is a per-edge (or, with
// ProcessBatch, per-batch) fork/join with deterministic output order
// and match sets identical to the serial MultiEngine (verified by the
// package tests). For parallelism at the candidate level inside a
// single query, see Engine.ProcessBatch.
//
// The paper defers scale-out to the distributed systems it cites; this
// is the shared-memory analogue: queries — not graph partitions — are
// the unit of parallelism, which keeps exact-match semantics trivially
// intact.
type ParallelMulti struct {
	inner   *MultiEngine
	workers []*pworker
	closed  bool
}

type pworker struct {
	names   []string
	engines []*Engine
	in      chan []graph.Edge
	out     chan []pmatch
	done    chan struct{}
}

// pmatch tags a match with the batch-edge index that completed it so
// the fork/join merge can restore deterministic input order.
type pmatch struct {
	query string
	edge  int
	m     iso.Match
}

// NewParallelMulti returns a parallel multi-query engine with the given
// worker count (<= 0 selects GOMAXPROCS). Register queries before
// processing edges; Register and ProcessEdge must not be called
// concurrently.
func NewParallelMulti(cfg MultiConfig, workers int) *ParallelMulti {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &ParallelMulti{inner: NewMulti(cfg)}
	for i := 0; i < workers; i++ {
		w := &pworker{
			in:   make(chan []graph.Edge),
			out:  make(chan []pmatch),
			done: make(chan struct{}),
		}
		go w.run()
		p.workers = append(p.workers, w)
	}
	return p
}

func (w *pworker) run() {
	for des := range w.in {
		var out []pmatch
		for i, eng := range w.engines {
			if len(des) == 1 {
				// Per-edge dispatch: the serial incremental search,
				// with the lazy gate skipping searches outright.
				for _, mt := range eng.processShared(des[0]) {
					out = append(out, pmatch{query: w.names[i], edge: 0, m: mt})
				}
				continue
			}
			// Batch dispatch: the inline merge. This worker is the only
			// goroutine touching the engine, and the previous batch's
			// rows were drained into pmatch values before the batch
			// completed.
			for ei, ms := range eng.searchShared(des) {
				for _, mt := range ms {
					out = append(out, pmatch{query: w.names[i], edge: ei, m: mt})
				}
			}
		}
		w.out <- out
	}
	close(w.done)
}

// Register adds a continuous query under a unique name and assigns it
// to the least-loaded worker.
func (p *ParallelMulti) Register(name string, q *query.Graph, cfg Config) error {
	if err := p.inner.Register(name, q, cfg); err != nil {
		return err
	}
	w := p.workers[0]
	for _, cand := range p.workers[1:] {
		if len(cand.engines) < len(w.engines) {
			w = cand
		}
	}
	w.names = append(w.names, name)
	w.engines = append(w.engines, p.inner.QueryEngine(name))
	return nil
}

// Unregister removes a query and its partial-match state.
func (p *ParallelMulti) Unregister(name string) {
	p.inner.Unregister(name)
	for _, w := range p.workers {
		for i, n := range w.names {
			if n == name {
				w.names = append(w.names[:i], w.names[i+1:]...)
				w.engines = append(w.engines[:i], w.engines[i+1:]...)
				break
			}
		}
	}
}

// Registered returns the registered query names in registration order.
func (p *ParallelMulti) Registered() []string { return p.inner.Registered() }

// Graph exposes the shared data graph (read-only use).
func (p *ParallelMulti) Graph() *graph.Graph { return p.inner.Graph() }

// QueryEngine returns the per-query engine (for stats inspection).
func (p *ParallelMulti) QueryEngine(name string) *Engine { return p.inner.QueryEngine(name) }

// Stats returns a snapshot of shared counters.
func (p *ParallelMulti) Stats() MultiStats { return p.inner.Stats() }

// ProcessEdge ingests one edge and fans the per-query searches across
// the worker pool, blocking until every query has processed it. Matches
// are returned in query registration order.
func (p *ParallelMulti) ProcessEdge(se stream.Edge) []NamedMatch {
	return p.dispatch([]graph.Edge{p.inner.ingest(se)})
}

// ProcessBatch ingests a whole batch into the shared graph (one
// statistics pass, one amortized eviction) and fans the per-query batch
// searches across the worker pool. Matches are returned edge-major in
// query registration order — byte-identical to a serial ProcessEdge
// loop over the same batch (see Engine.ProcessBatch).
func (p *ParallelMulti) ProcessBatch(ses []stream.Edge) []NamedMatch {
	if len(ses) == 0 {
		return nil
	}
	p.inner.arena.begin()
	return p.dispatch(p.inner.ingestBatch(ses))
}

// dispatch broadcasts the ingested edges to every loaded worker and
// merges the results back in (edge, registration) order.
func (p *ParallelMulti) dispatch(des []graph.Edge) []NamedMatch {
	active := 0
	for _, w := range p.workers {
		if len(w.engines) == 0 {
			continue
		}
		active++
		w.in <- des
	}
	if active == 0 {
		return nil
	}
	type key struct {
		edge  int
		query string
	}
	byKey := make(map[key][]iso.Match)
	for _, w := range p.workers {
		if len(w.engines) == 0 {
			continue
		}
		for _, pm := range <-w.out {
			k := key{edge: pm.edge, query: pm.query}
			byKey[k] = append(byKey[k], pm.m)
		}
	}
	names := p.inner.Registered()
	var out []NamedMatch
	for i := range des {
		for _, name := range names {
			for _, mt := range byKey[key{edge: i, query: name}] {
				out = append(out, NamedMatch{Query: name, Match: mt})
			}
		}
	}
	return out
}

// Run drains a stream source, invoking onMatch (may be nil) for every
// complete match, and returns the total number of matches.
func (p *ParallelMulti) Run(src stream.Source, onMatch func(stream.Edge, NamedMatch)) (int64, error) {
	var total int64
	for {
		se, err := src.Next()
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
		for _, nm := range p.ProcessEdge(se) {
			total++
			if onMatch != nil {
				onMatch(se, nm)
			}
		}
	}
}

// Close shuts the worker pool down. The engine must not be used after
// Close.
func (p *ParallelMulti) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, w := range p.workers {
		close(w.in)
		<-w.done
	}
}

// FlushAll flushes every query's deferred lazy work (see
// Engine.FlushPending), returning any produced complete matches. Useful
// before Close when the stream ends.
func (p *ParallelMulti) FlushAll() []NamedMatch {
	var out []NamedMatch
	for _, name := range p.inner.Registered() {
		eng := p.inner.QueryEngine(name)
		for _, m := range eng.FlushPending() {
			out = append(out, NamedMatch{Query: name, Match: m})
		}
	}
	return out
}
