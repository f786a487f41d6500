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
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"streamgraph/internal/core"
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/sjtree"
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

	bw := &writer{w: bufio.NewWriter(w)}
	bw.bytes([]byte(magic))
	bw.u32(version)

	// Query and configuration (decomposition pinned).
	cfg := eng.ConfigSnapshot()
	bw.str(eng.Query().String())
	bw.u32(uint32(cfg.Strategy))
	bw.i64(cfg.Window)
	bw.u32(uint32(cfg.MaxMatchesPerSearch))
	bw.i64(cfg.MaxWorkPerEdge)
	bw.i64(cfg.MaxStepsPerSearch)
	bw.u32(uint32(len(cfg.Leaves)))
	for _, leaf := range cfg.Leaves {
		bw.u32(uint32(len(leaf)))
		for _, ei := range leaf {
			bw.u32(uint32(ei))
		}
	}
	seenTS, cutoff := eng.SweepClock()
	bw.i64(seenTS)
	bw.i64(cutoff)

	// Gather the referenced vertex set: endpoints of live edges and match
	// bindings.
	g := eng.Graph()
	vertIdx := make(map[graph.VertexID]uint32)
	var verts []graph.VertexID
	need := func(v graph.VertexID) uint32 {
		if i, ok := vertIdx[v]; ok {
			return i
		}
		i := uint32(len(verts))
		vertIdx[v] = i
		verts = append(verts, v)
		return i
	}

	type edgeRef struct {
		src, dst uint32
		typeName string
		ts       int64
	}
	edgeIdx := make(map[graph.EdgeID]uint32)
	var edges []edgeRef
	g.EachEdgeArrival(func(e graph.Edge) bool {
		edgeIdx[e.ID] = uint32(len(edges))
		edges = append(edges, edgeRef{
			src: need(e.Src), dst: need(e.Dst),
			typeName: g.Types().Name(uint32(e.Type)), ts: e.TS,
		})
		return true
	})

	nStored, err := needStored(eng.Tree(), need, edgeIdx)
	if err != nil {
		return flushed, fmt.Errorf("persist: %w", err)
	}

	// Vertex table.
	bw.u32(uint32(len(verts)))
	for _, v := range verts {
		bw.str(g.VertexName(v))
		bw.str(g.Labels().Name(uint32(g.VertexLabel(v))))
	}
	// Edge table in arrival order.
	bw.u32(uint32(len(edges)))
	for _, e := range edges {
		bw.u32(e.src)
		bw.u32(e.dst)
		bw.str(e.typeName)
		bw.i64(e.ts)
	}
	// Stored partial matches.
	bw.stored(eng.Tree(), nStored, vertIdx, edgeIdx)
	// Engine counters.
	st := eng.Stats()
	for _, v := range []int64{
		st.EdgesProcessed, st.LeafSearches, st.LeafMatches,
		st.RetroSearches, st.RetroMatches, st.CompleteMatches,
		st.GraphEvicted,
	} {
		bw.i64(v)
	}

	if bw.err != nil {
		return flushed, bw.err
	}
	return flushed, bw.w.Flush()
}

// Load reads a snapshot and returns a restored engine ready to continue
// processing the stream.
func Load(r io.Reader) (*core.Engine, error) {
	br := &reader{r: bufio.NewReader(r)}
	head := make([]byte, len(magic))
	br.bytes(head)
	if br.err == nil && string(head) != magic {
		return nil, fmt.Errorf("persist: bad magic %q", head)
	}
	v := br.u32()
	if br.err == nil && v != 1 && v != version {
		return nil, fmt.Errorf("persist: unsupported snapshot version %d", v)
	}

	qText := br.str()
	cfg := core.Config{
		Strategy:            core.Strategy(br.u32()),
		Window:              br.i64(),
		MaxMatchesPerSearch: int(br.u32()),
		MaxWorkPerEdge:      br.i64(),
		MaxStepsPerSearch:   br.i64(),
	}
	if v == 1 {
		br.u32() // the eviction cadence
	}
	nLeaves := br.u32()
	if nLeaves > 0 {
		cfg.Leaves = make([][]int, nLeaves)
		for i := range cfg.Leaves {
			n := br.u32()
			leaf := make([]int, n)
			for j := range leaf {
				leaf[j] = int(br.u32())
			}
			cfg.Leaves[i] = leaf
		}
	}
	seenTS, cutoff := int64(math.MinInt64), int64(math.MinInt64)
	if v != 1 {
		seenTS, cutoff = br.i64(), br.i64()
	}
	if br.err != nil {
		return nil, br.err
	}
	q, err := query.Parse(qText)
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot query: %v", err)
	}
	eng, err := core.New(q, cfg)
	if err != nil {
		return nil, fmt.Errorf("persist: rebuilding engine: %v", err)
	}

	// Vertices.
	g := eng.Graph()
	nVerts := br.u32()
	if br.err != nil {
		return nil, br.err
	}
	vertID := make([]graph.VertexID, nVerts)
	for i := range vertID {
		name := br.str()
		label := br.str()
		if br.err != nil {
			return nil, br.err
		}
		vertID[i] = g.EnsureVertex(name, label)
	}
	// Edges, re-added in the original arrival order.
	nEdges := br.u32()
	if br.err != nil {
		return nil, br.err
	}
	edgeID := make([]graph.EdgeID, nEdges)
	for i := range edgeID {
		src := br.u32()
		dst := br.u32()
		typeName := br.str()
		ts := br.i64()
		if br.err != nil {
			return nil, br.err
		}
		if src >= nVerts || dst >= nVerts {
			return nil, fmt.Errorf("persist: edge %d references vertex out of range", i)
		}
		t := graph.TypeID(g.Types().Intern(typeName))
		edgeID[i] = g.AddEdge(vertID[src], vertID[dst], t, ts)
	}
	// Stored partial matches.
	if err := br.stored(eng.Tree(), q, vertID, edgeID); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if v == 1 {
		if err := br.skipLazyMasks(nVerts); err != nil {
			return nil, err
		}
		seenTS = v1SeenTS(g)
	}
	eng.RestoreSweepClock(seenTS, cutoff)
	// Lazy Search enablement is rebuilt from the stored matches.
	eng.RestoreLazyStamps()
	// Engine counters. IsoSteps restarts from zero (it is a live matcher
	// counter, not persisted state).
	var st core.Stats
	st.EdgesProcessed = br.i64()
	st.LeafSearches = br.i64()
	st.LeafMatches = br.i64()
	st.RetroSearches = br.i64()
	st.RetroMatches = br.i64()
	st.CompleteMatches = br.i64()
	st.GraphEvicted = br.i64()
	if br.err != nil {
		return nil, br.err
	}
	eng.RestoreStats(st)
	return eng, nil
}

// skipLazyMasks reads past a version 1 image's Lazy Search section, one
// mask per vertex, checking only that each names a vertex of the image.
func (r *reader) skipLazyMasks(nVerts uint32) error {
	n := r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		if idx := r.u32(); r.err == nil && idx >= nVerts {
			return fmt.Errorf("persist: lazy bits reference unknown vertex %d", idx)
		}
		r.u64()
	}
	return r.err
}

// v1SeenTS is the sweep clock's largest timestamp for a version 1 image,
// which did not record it: the latest of the edges it holds.
func v1SeenTS(g *graph.Graph) int64 {
	if g.NumEdges() == 0 {
		return math.MinInt64
	}
	return g.LastTS()
}

// --- primitive binary IO ---------------------------------------------------

type writer struct {
	w   *bufio.Writer
	err error
}

// needStored is the first of two passes over t's stored matches (nil for
// a strategy without a tree): it registers every vertex they bind for
// the vertex table, which the image carries ahead of the matches, checks
// that every edge they bind is in edgeIdx, and counts them. EachStored
// hands out views, so nothing is kept; writer.stored encodes them on a
// second pass over the unchanged tree.
func needStored(t *sjtree.Tree, need func(graph.VertexID) uint32, edgeIdx map[graph.EdgeID]uint32) (n int, err error) {
	if t == nil {
		return 0, nil
	}
	t.EachStored(func(_ *sjtree.Node, m iso.Match) bool {
		for _, dv := range m.VertexOf {
			if dv != graph.NoVertex {
				need(dv)
			}
		}
		for _, de := range m.EdgeOf {
			if de == iso.NoEdge {
				continue
			}
			if _, ok := edgeIdx[de]; !ok {
				err = fmt.Errorf("stored match references edge %d not in the live graph", de)
				return false
			}
		}
		n++
		return true
	})
	return n, err
}

// stored writes the n stored matches needStored counted in t.
func (w *writer) stored(t *sjtree.Tree, n int, vertIdx map[graph.VertexID]uint32, edgeIdx map[graph.EdgeID]uint32) {
	w.u32(uint32(n))
	if n == 0 {
		return
	}
	t.EachStored(func(node *sjtree.Node, m iso.Match) bool {
		w.u32(uint32(node.ID))
		w.u32(uint32(len(m.VertexOf)))
		for _, dv := range m.VertexOf {
			if dv == graph.NoVertex {
				w.u32(noIdx)
			} else {
				w.u32(vertIdx[dv])
			}
		}
		w.u32(uint32(len(m.EdgeOf)))
		for _, de := range m.EdgeOf {
			if de == iso.NoEdge {
				w.u32(noIdx)
			} else {
				w.u32(edgeIdx[de])
			}
		}
		w.i64(m.MinTS)
		w.i64(m.MaxTS)
		return true
	})
}

func (w *writer) bytes(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

func (w *writer) u32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	w.bytes(buf[:])
}

func (w *writer) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.bytes(buf[:])
}

func (w *writer) i64(v int64) { w.u64(uint64(v)) }

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.bytes([]byte(s))
}

type reader struct {
	r   *bufio.Reader
	err error
	// scratch is what u32 and u64 decode from: an array local to them
	// would escape through io.ReadFull and cost a heap object per
	// integer of the image.
	scratch [8]byte
}

// stored reads a count and that many stored matches into t (nil for a
// strategy that builds no tree). One scratch match is decoded into and
// copied from: RestoreStored keeps nothing of what it is handed.
func (r *reader) stored(t *sjtree.Tree, q *query.Graph, vertID []graph.VertexID, edgeID []graph.EdgeID) error {
	n := r.u32()
	if r.err != nil {
		return r.err
	}
	if n > 0 && t == nil {
		return fmt.Errorf("stored matches for a strategy that builds no tree")
	}
	m := iso.NewMatch(q)
	for i := uint32(0); i < n; i++ {
		node := int(r.u32())
		if nv := r.u32(); r.err == nil && int(nv) != len(m.VertexOf) {
			return fmt.Errorf("match %d has %d vertex slots, query has %d", i, nv, len(m.VertexOf))
		}
		for j := range m.VertexOf {
			m.VertexOf[j] = graph.NoVertex
			if idx := r.u32(); idx != noIdx {
				if int(idx) >= len(vertID) {
					return fmt.Errorf("match %d binds unknown vertex %d", i, idx)
				}
				m.VertexOf[j] = vertID[idx]
			}
		}
		if ne := r.u32(); r.err == nil && int(ne) != len(m.EdgeOf) {
			return fmt.Errorf("match %d has %d edge slots, query has %d", i, ne, len(m.EdgeOf))
		}
		for j := range m.EdgeOf {
			m.EdgeOf[j] = iso.NoEdge
			if idx := r.u32(); idx != noIdx {
				if int(idx) >= len(edgeID) {
					return fmt.Errorf("match %d binds unknown edge %d", i, idx)
				}
				m.EdgeOf[j] = edgeID[idx]
			}
		}
		m.MinTS = r.i64()
		m.MaxTS = r.i64()
		if r.err != nil {
			return r.err
		}
		if err := t.RestoreStored(node, m); err != nil {
			return err
		}
	}
	return nil
}

func (r *reader) bytes(b []byte) {
	if r.err != nil {
		return
	}
	_, r.err = io.ReadFull(r.r, b)
}

func (r *reader) u32() uint32 {
	b := r.scratch[:4]
	r.bytes(b)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.scratch[:8]
	r.bytes(b)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > 1<<24 {
		r.err = fmt.Errorf("persist: string length %d exceeds sanity bound", n)
		return ""
	}
	b := make([]byte, n)
	r.bytes(b)
	return string(b)
}
