// Package persist checkpoints a running continuous query and restores
// it in a fresh process: the windowed data graph, the SJ-Tree's partial
// matches, the sweep clock and the engine counters are written to a
// versioned binary snapshot; the Lazy Search stamps are rebuilt from the
// partial matches. A restored engine continues exactly where the
// original stopped — the package tests verify that feeding the same
// suffix of a stream to the original and the restored engine yields
// identical match sets.
//
// The paper's engine is a long-standing query over an endless stream
// ("register a pattern ... continuously perform the query"); surviving
// a process restart without dropping the partial matches accumulated
// inside the window is table stakes for deploying one.
package persist

import (
	"fmt"
	"io"
	"math"

	"streamgraph/internal/core"
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
)

// Image versions. A version 2 image carries the sweep clock (the
// largest timestamp offered and the last cutoff swept at) where version 1
// carried an eviction cadence in edges, and no Lazy Search masks, which
// nothing read. Both load; a version 1 image restarts the clock from its
// graph's latest timestamp.
const (
	magic   = "SGSNAP1\n"
	version = uint32(2)
	// noIdx marks an unbound binding slot in the serialized form.
	noIdx = uint32(math.MaxUint32)
)

// Save writes a snapshot of the engine to w. The engine must be
// quiescent (between ProcessEdge calls). Save first flushes deferred
// lazy work and forces window eviction; complete matches produced by
// the flush are returned so the caller can report them.
func Save(w io.Writer, eng *core.Engine) (flushed []iso.Match, err error) {
	flushed = eng.FlushPending()
	eng.ForceEvict()

	e := &encoder{}
	e.b = append(e.b, magic...)
	e.u32(version)

	// Query and configuration (decomposition pinned).
	cfg := eng.ConfigSnapshot()
	e.str(eng.Query().String())
	e.u32(uint32(cfg.Strategy))
	e.i64(cfg.Window)
	e.u32(uint32(cfg.MaxMatchesPerSearch))
	e.i64(cfg.MaxWorkPerEdge)
	e.i64(cfg.MaxStepsPerSearch)
	e.leaves(cfg.Leaves)
	seenTS, cutoff := eng.SweepClock()
	e.i64(seenTS)
	e.i64(cutoff)

	// The referenced vertex set: endpoints of live edges and match
	// bindings.
	ix := newIndex(eng.Graph())
	nStored, err := ix.needStored(eng.Tree())
	if err != nil {
		return flushed, fmt.Errorf("persist: %w", err)
	}
	e.graph(ix)
	e.stored(eng.Tree(), nStored, ix)
	e.stats(eng.Stats())

	_, err = w.Write(e.b)
	return flushed, err
}

// Load reads a snapshot and returns a restored engine ready to continue
// processing the stream. It reads r to its end.
func Load(r io.Reader) (*core.Engine, error) {
	d, err := readImage(r)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	eng, err := d.engine()
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return eng, nil
}

// engine decodes a Save image.
func (d *decoder) engine() (*core.Engine, error) {
	if head := d.take(len(magic)); d.err == nil && string(head) != magic {
		return nil, fmt.Errorf("bad magic %q", head)
	}
	v := d.u32()
	if d.err == nil && v != 1 && v != version {
		return nil, fmt.Errorf("unsupported snapshot version %d", v)
	}

	qText := d.str()
	cfg := core.Config{
		Strategy:            core.Strategy(d.u32()),
		Window:              d.i64(),
		MaxMatchesPerSearch: int(d.u32()),
		MaxWorkPerEdge:      d.i64(),
		MaxStepsPerSearch:   d.i64(),
	}
	if v == 1 {
		d.u32() // the eviction cadence
	}
	cfg.Leaves = d.leaves()
	seenTS, cutoff := int64(math.MinInt64), int64(math.MinInt64)
	if v != 1 {
		seenTS, cutoff = d.i64(), d.i64()
	}
	if d.err != nil {
		return nil, d.err
	}
	q, err := query.Parse(qText)
	if err != nil {
		return nil, fmt.Errorf("snapshot query: %v", err)
	}
	eng, err := core.New(q, cfg)
	if err != nil {
		return nil, fmt.Errorf("rebuilding engine: %v", err)
	}

	g := eng.Graph()
	vertID, edgeID, err := d.graph(g)
	if err != nil {
		return nil, err
	}
	if err := d.stored(eng.Tree(), q, vertID, edgeID); err != nil {
		return nil, err
	}
	if v == 1 {
		if err := d.skipLazyMasks(len(vertID)); err != nil {
			return nil, err
		}
		seenTS = v1SeenTS(g)
	}
	eng.RestoreSweepClock(seenTS, cutoff)
	// Lazy Search enablement is rebuilt from the stored matches.
	eng.RestoreLazyStamps()
	// Engine counters. IsoSteps restarts from zero (it is a live matcher
	// counter, not persisted state).
	st := d.stats()
	if d.err != nil {
		return nil, d.err
	}
	eng.RestoreStats(st)
	return eng, nil
}

// v1SeenTS is the sweep clock's largest timestamp for a version 1 image,
// which did not record it: the latest of the edges it holds.
func v1SeenTS(g *graph.Graph) int64 {
	if g.NumEdges() == 0 {
		return math.MinInt64
	}
	return g.LastTS()
}
