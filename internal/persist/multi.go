package persist

import (
	"fmt"
	"io"
	"math"

	"streamgraph/internal/core"
	"streamgraph/internal/graph"
	"streamgraph/internal/query"
)

// Multi-engine checkpoints. SaveMulti serializes a whole running
// core.MultiEngine — the shared windowed graph, every registered
// query's SJ-Tree tables, queued retrospective work and counters, plus
// the shared sweep clock — WITHOUT flushing pending lazy work or forcing
// eviction. That non-flushing property is what makes it usable as a live
// checkpoint: flushing would attribute deferred matches to the
// checkpoint position instead of the stream position a serial run
// reports them at, and forced eviction would sweep where the original
// does not. A LoadMulti'd engine fed the same stream suffix emits
// exactly the matches the original would have and sweeps where it
// would have. Lazy Search enablement is rebuilt from the stored matches.
// A version 1 image carried an eviction cadence, the edges since the
// last sweep and a Lazy Search mask per vertex, where version 2 carries
// the sweep clock; both load. This is the one format written: Save
// writes a standalone engine's host in it.
//
// The replica filter (SetReplicaFilter) is deliberately NOT serialized
// and must be re-applied by the caller, which owns it in every
// deployment: the shard worker derives it from its registration
// footprints, the remote worker from the restore frame's header.
// Statistics need no image: every registered query's decomposition is
// pinned in its Leaves, and a later registration decomposes from the
// restored graph's window (core.MultiEngine.Statistics).

const (
	multiMagic   = "SGSNAPM\n"
	multiVersion = uint32(2)
)

// SaveMulti writes a snapshot of the multi-engine to w. The engine
// must be quiescent (between ProcessEdge/ProcessBatch calls); it is
// not flushed, evicted or otherwise mutated.
func SaveMulti(w io.Writer, m *core.MultiEngine) error {
	e := &encoder{}
	e.b = append(e.b, multiMagic...)
	e.u32(multiVersion)

	e.i64(m.WindowSize())
	seenTS, cutoff := m.SweepClock()
	e.i64(seenTS)
	e.i64(cutoff)
	e.i64(m.Stats().EdgesProcessed)
	e.i64(m.EdgesStored())

	// The referenced vertex set: endpoints of live edges, every query's
	// queued retro work and match bindings.
	ix := newIndex(m.Graph())
	names := m.Registered()
	perStored := make([]int, len(names))
	perRetro := make([][][]graph.VertexID, len(names))
	for qi, name := range names {
		eng := m.QueryEngine(name)
		perRetro[qi] = eng.PendingRetro()
		for _, vs := range perRetro[qi] {
			for _, v := range vs {
				ix.need(v)
			}
		}
		var err error
		if perStored[qi], err = ix.needStored(eng.Tree()); err != nil {
			return fmt.Errorf("persist: query %q: %w", name, err)
		}
	}
	e.graph(ix)

	// Per-query sections, in registration order.
	e.u32(uint32(len(names)))
	for qi, name := range names {
		eng := m.QueryEngine(name)
		cfg := eng.ConfigSnapshot()
		e.str(name)
		e.str(eng.Query().String())
		e.u32(uint32(cfg.Strategy))
		e.u32(uint32(cfg.MaxMatchesPerSearch))
		e.i64(cfg.MaxWorkPerEdge)
		e.i64(cfg.MaxStepsPerSearch)
		e.u32(0) // where older images carried a search-pool size
		e.leaves(cfg.Leaves)
		e.stored(eng.Tree(), perStored[qi], ix)
		// Queued retrospective work, per leaf.
		e.u32(uint32(len(perRetro[qi])))
		for _, vs := range perRetro[qi] {
			e.u32(uint32(len(vs)))
			for _, v := range vs {
				e.u32(ix.vert[v] - 1)
			}
		}
		e.stats(eng.Stats())
	}

	_, err := w.Write(e.b)
	return err
}

// LoadMulti reads a SaveMulti snapshot and returns a restored
// multi-engine ready to continue the stream. It reads r to its end.
// The replica filter is universal after load; callers that run
// filtered replicas must re-apply SetReplicaFilter before ingesting.
func LoadMulti(r io.Reader) (*core.MultiEngine, error) {
	d, err := readImage(r)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	m, err := d.multi()
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return m, nil
}

// multi decodes a SaveMulti image.
func (d *decoder) multi() (*core.MultiEngine, error) {
	if head := d.take(len(multiMagic)); d.err == nil && string(head) != multiMagic {
		return nil, fmt.Errorf("bad multi magic %q", head)
	}
	v := d.u32()
	if d.err == nil && v != 1 && v != multiVersion {
		return nil, fmt.Errorf("unsupported multi snapshot version %d", v)
	}

	window := d.i64()
	seenTS, cutoff := int64(math.MinInt64), int64(math.MinInt64)
	if v == 1 {
		d.u32() // the eviction cadence
		d.u32() // edges since the last sweep
	} else {
		seenTS, cutoff = d.i64(), d.i64()
	}
	edgesSeen := d.i64()
	stored := d.i64()
	if d.err != nil {
		return nil, d.err
	}
	m := core.NewMulti(core.MultiConfig{Window: window})

	// The shared graph, re-added in the original arrival order so the
	// eviction FIFO and relative arrival seqs are preserved.
	g := m.Graph()
	vertID, edgeID, err := d.graph(g)
	if err != nil {
		return nil, err
	}

	nQueries := d.count(querySize)
	for qi := 0; qi < nQueries; qi++ {
		name := d.str()
		qText := d.str()
		cfg := core.Config{
			Strategy:            core.Strategy(d.u32()),
			MaxMatchesPerSearch: int(d.u32()),
			MaxWorkPerEdge:      d.i64(),
			MaxStepsPerSearch:   d.i64(),
		}
		d.u32() // the search-pool size of older images
		cfg.Leaves = d.leaves()
		if d.err != nil {
			return nil, d.err
		}
		q, err := query.Parse(qText)
		if err != nil {
			return nil, fmt.Errorf("query %q: %v", name, err)
		}
		if err := m.Register(name, q, cfg); err != nil {
			return nil, fmt.Errorf("re-registering %q: %v", name, err)
		}
		eng := m.QueryEngine(name)

		if err := d.stored(eng.Tree(), q, vertID, edgeID); err != nil {
			return nil, fmt.Errorf("%q %w", name, err)
		}
		if v == 1 {
			if err := d.skipLazyMasks(len(vertID)); err != nil {
				return nil, fmt.Errorf("%q %w", name, err)
			}
		}
		// Lazy Search enablement is rebuilt from the stored matches.
		eng.RestoreLazyStamps()
		perLeaf, err := d.retro(vertID)
		if err != nil {
			return nil, fmt.Errorf("%q %w", name, err)
		}
		if perLeaf != nil {
			eng.RestorePendingRetro(perLeaf)
		}
		st := d.stats()
		if d.err != nil {
			return nil, d.err
		}
		eng.RestoreStats(st)
	}
	if d.err != nil {
		return nil, d.err
	}

	if v == 1 {
		seenTS = v1SeenTS(g)
	}
	m.RestoreSweepClock(seenTS, cutoff, edgesSeen, stored)
	return m, nil
}
