package persist

import (
	"bufio"
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
// The image versions follow the single-engine ones (see version): a
// version 1 image carried an eviction cadence, the edges since the last
// sweep and a Lazy Search mask per vertex, where version 2 carries the
// sweep clock.
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
	bw := &writer{w: bufio.NewWriter(w)}
	bw.bytes([]byte(multiMagic))
	bw.u32(multiVersion)

	bw.i64(m.WindowSize())
	seenTS, cutoff := m.SweepClock()
	bw.i64(seenTS)
	bw.i64(cutoff)
	bw.i64(m.Stats().EdgesProcessed)
	bw.i64(m.EdgesStored())

	// Gather the referenced vertex set: endpoints of live edges, every
	// query's match bindings and queued retro work.
	g := m.Graph()
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

	names := m.Registered()
	perStored := make([]int, len(names))
	perRetro := make([][][]graph.VertexID, len(names))
	for qi, name := range names {
		eng := m.QueryEngine(name)
		perRetro[qi] = eng.PendingRetro()
		for _, vs := range perRetro[qi] {
			for _, v := range vs {
				need(v)
			}
		}
		var err error
		if perStored[qi], err = needStored(eng.Tree(), need, edgeIdx); err != nil {
			return fmt.Errorf("persist: query %q: %w", name, err)
		}
	}

	// Shared vertex table.
	bw.u32(uint32(len(verts)))
	for _, v := range verts {
		bw.str(g.VertexName(v))
		bw.str(g.Labels().Name(uint32(g.VertexLabel(v))))
	}
	// Shared edge table in arrival order.
	bw.u32(uint32(len(edges)))
	for _, e := range edges {
		bw.u32(e.src)
		bw.u32(e.dst)
		bw.str(e.typeName)
		bw.i64(e.ts)
	}

	// Per-query sections, in registration order.
	bw.u32(uint32(len(names)))
	for qi, name := range names {
		eng := m.QueryEngine(name)
		cfg := eng.ConfigSnapshot()
		bw.str(name)
		bw.str(eng.Query().String())
		bw.u32(uint32(cfg.Strategy))
		bw.u32(uint32(cfg.MaxMatchesPerSearch))
		bw.i64(cfg.MaxWorkPerEdge)
		bw.i64(cfg.MaxStepsPerSearch)
		bw.u32(0) // where older images carried a search-pool size
		bw.u32(uint32(len(cfg.Leaves)))
		for _, leaf := range cfg.Leaves {
			bw.u32(uint32(len(leaf)))
			for _, ei := range leaf {
				bw.u32(uint32(ei))
			}
		}
		// Stored partial matches.
		bw.stored(m.QueryEngine(name).Tree(), perStored[qi], vertIdx, edgeIdx)
		// Queued retrospective work, per leaf.
		bw.u32(uint32(len(perRetro[qi])))
		for _, vs := range perRetro[qi] {
			bw.u32(uint32(len(vs)))
			for _, v := range vs {
				bw.u32(vertIdx[v])
			}
		}
		// Engine counters.
		st := eng.Stats()
		for _, v := range []int64{
			st.EdgesProcessed, st.LeafSearches, st.LeafMatches,
			st.RetroSearches, st.RetroMatches, st.CompleteMatches,
			st.GraphEvicted,
		} {
			bw.i64(v)
		}
	}

	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

// LoadMulti reads a SaveMulti snapshot and returns a restored
// multi-engine ready to continue the stream. The replica filter is
// universal after load; callers that run filtered replicas must
// re-apply SetReplicaFilter before ingesting.
func LoadMulti(r io.Reader) (*core.MultiEngine, error) {
	br := &reader{r: bufio.NewReader(r)}
	head := make([]byte, len(multiMagic))
	br.bytes(head)
	if br.err == nil && string(head) != multiMagic {
		return nil, fmt.Errorf("persist: bad multi magic %q", head)
	}
	v := br.u32()
	if br.err == nil && v != 1 && v != multiVersion {
		return nil, fmt.Errorf("persist: unsupported multi snapshot version %d", v)
	}

	window := br.i64()
	seenTS, cutoff := int64(math.MinInt64), int64(math.MinInt64)
	if v == 1 {
		br.u32() // the eviction cadence
		br.u32() // edges since the last sweep
	} else {
		seenTS, cutoff = br.i64(), br.i64()
	}
	edgesSeen := br.i64()
	stored := br.i64()
	if br.err != nil {
		return nil, br.err
	}
	m := core.NewMulti(core.MultiConfig{Window: window})

	// Shared vertices.
	g := m.Graph()
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
	// Shared edges, re-added in the original arrival order so the
	// eviction FIFO and relative arrival seqs are preserved.
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

	nQueries := br.u32()
	if br.err != nil {
		return nil, br.err
	}
	for qi := uint32(0); qi < nQueries; qi++ {
		name := br.str()
		qText := br.str()
		cfg := core.Config{
			Strategy:            core.Strategy(br.u32()),
			MaxMatchesPerSearch: int(br.u32()),
			MaxWorkPerEdge:      br.i64(),
			MaxStepsPerSearch:   br.i64(),
		}
		br.u32() // the search-pool size of older images
		nLeaves := br.u32()
		if br.err != nil {
			return nil, br.err
		}
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
		q, err := query.Parse(qText)
		if err != nil {
			return nil, fmt.Errorf("persist: query %q: %v", name, err)
		}
		if err := m.Register(name, q, cfg); err != nil {
			return nil, fmt.Errorf("persist: re-registering %q: %v", name, err)
		}
		eng := m.QueryEngine(name)

		// Stored partial matches.
		if err := br.stored(eng.Tree(), q, vertID, edgeID); err != nil {
			return nil, fmt.Errorf("persist: %q %w", name, err)
		}
		if v == 1 {
			if err := br.skipLazyMasks(nVerts); err != nil {
				return nil, fmt.Errorf("persist: %q %w", name, err)
			}
		}
		// Lazy Search enablement is rebuilt from the stored matches.
		eng.RestoreLazyStamps()
		// Queued retrospective work.
		nRetroLeaves := br.u32()
		if br.err != nil {
			return nil, br.err
		}
		if nRetroLeaves > 0 {
			perLeaf := make([][]graph.VertexID, nRetroLeaves)
			for l := range perLeaf {
				n := br.u32()
				if br.err != nil {
					return nil, br.err
				}
				if n == 0 {
					continue
				}
				vs := make([]graph.VertexID, n)
				for j := range vs {
					idx := br.u32()
					if br.err != nil {
						return nil, br.err
					}
					if idx >= nVerts {
						return nil, fmt.Errorf("persist: %q retro queue references unknown vertex %d", name, idx)
					}
					vs[j] = vertID[idx]
				}
				perLeaf[l] = vs
			}
			eng.RestorePendingRetro(perLeaf)
		}
		// Engine counters.
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
	}

	if v == 1 {
		seenTS = v1SeenTS(g)
	}
	m.RestoreSweepClock(seenTS, cutoff, edgesSeen, stored)
	return m, nil
}
