// Package persist checkpoints a running continuous query and restores
// it in a fresh process: the windowed data graph, the SJ-Tree's partial
// matches, the sweep clock and the engine counters are written to a
// versioned binary snapshot; the Lazy Search stamps are rebuilt from the
// partial matches. A restored engine continues exactly where the
// original stopped — the package tests verify that feeding the same
// suffix of a stream to the original and the restored engine yields
// identical match sets.
//
// There is one image format, SaveMulti's (multi.go): a standalone
// engine is a MultiEngine of one (core.New), and Save writes its host.
// The single-engine format of earlier versions ("SGSNAP1", versions 1
// and 2) is only read, so images already on disk still load.
//
// The paper's engine is a long-standing query over an endless stream
// ("register a pattern ... continuously perform the query"); surviving
// a process restart without dropping the partial matches accumulated
// inside the window is table stakes for deploying one.
package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"

	"streamgraph/internal/core"
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
)

const (
	// magic opens a legacy single-engine image. Version 2 carries the
	// sweep clock (the largest timestamp offered and the last cutoff
	// swept at) where version 1 carried an eviction cadence in edges, and
	// no Lazy Search masks, which nothing read. Both load; a version 1
	// image restarts the clock from its graph's latest timestamp.
	magic = "SGSNAP1\n"
	// noIdx marks an unbound binding slot in the serialized form.
	noIdx = uint32(math.MaxUint32)
)

// Save writes a snapshot of a standalone engine (core.New or Load) to
// w. The engine must be quiescent (between ProcessEdge calls). Save
// first flushes deferred lazy work and sweeps the window at its exact
// cutoff, then writes the engine's host (SaveMulti); complete matches
// produced by the flush are returned so the caller can report them.
func Save(w io.Writer, eng *core.Engine) (flushed []iso.Match, err error) {
	m := eng.Host()
	if m == nil {
		return nil, errors.New("persist: Save takes a standalone engine; save the MultiEngine it is registered on with SaveMulti")
	}
	flushed = eng.FlushPending()
	m.ForceEvict()
	return flushed, SaveMulti(w, m)
}

// Load reads a snapshot of a standalone engine — a one-query SaveMulti
// image, or a legacy single-engine image — and returns a restored
// engine ready to continue processing the stream. It reads r to its
// end.
func Load(r io.Reader) (*core.Engine, error) {
	d, err := readImage(r)
	var eng *core.Engine
	switch {
	case err != nil:
	case bytes.HasPrefix(d.b, []byte(magic)):
		eng, err = d.engine()
	default:
		var m *core.MultiEngine
		if m, err = d.multi(); err == nil {
			eng, err = m.Solo()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return eng, nil
}

// engine decodes a legacy single-engine image.
func (d *decoder) engine() (*core.Engine, error) {
	if head := d.take(len(magic)); d.err == nil && string(head) != magic {
		return nil, fmt.Errorf("bad magic %q", head)
	}
	v := d.u32()
	if d.err == nil && v != 1 && v != 2 {
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
	// The image carries no host counters.
	eng.Host().RestoreSweepClock(seenTS, cutoff, 0, 0)
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
