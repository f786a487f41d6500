package persist

import (
	"bytes"
	"fmt"

	"streamgraph/internal/core"
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/sjtree"
)

// Live-migration state transfer. A standing query moving between shard
// slots must carry its partial-match state — the SJ-Tree stored
// matches (and with them the Lazy Search stamps, which the target
// rebuilds from them), the queued retrospective work and the counters —
// or the target would silently drop every match spanning the handoff.
// TransplantState moves exactly that state between two
// engines that both have the query registered; ExtractQuery packages
// one query (state plus the minimal graph slice its stored matches
// reference) as the SaveMulti image that crosses every handoff.
//
// Like SaveMulti, none of these flush pending lazy work: the
// transplanted retro queue drains on the target at its next batch or
// control point, exactly as a restored checkpoint's does — the same
// schedule argument the crash-recovery differential tests pin.
//
// Edge identity crosses engines by content (src, dst, type, ts
// resolved to names). Duplicate edges with identical content are
// resolved injectively in arrival order, so two distinct source edges
// never collapse onto one target edge (which would corrupt the
// SJ-Tree's dedup tables). A stored match referencing an edge the
// target graph does not hold is dropped: the target evicted (or never
// replicated) that edge because it is outside the window, and the
// join-time τ(g) < tW check makes such a partial unable to ever
// complete — dropping it is invisible to the match multiset.

// edgeKey is content-based edge identity across engines.
type edgeKey struct {
	src, dst, typ string
	ts            int64
}

// TransplantState moves query name's live state from src into dst.
// The query must be registered in both engines with the same
// decomposition (the migration path registers the target from the
// source's ConfigSnapshot, which pins it). The source engine is not
// mutated. Returns the number of stored partial matches dropped
// because the target graph no longer holds a referenced edge.
func TransplantState(dst, src *core.MultiEngine, name string) (dropped int, err error) {
	seng := src.QueryEngine(name)
	if seng == nil {
		return 0, fmt.Errorf("persist: transplant source does not hold query %q", name)
	}
	deng := dst.QueryEngine(name)
	if deng == nil {
		return 0, fmt.Errorf("persist: transplant target does not hold query %q", name)
	}
	sg, dg := src.Graph(), dst.Graph()

	// Collect the source edge IDs the stored matches reference.
	referenced := make(map[graph.EdgeID]bool)
	if t := seng.Tree(); t != nil {
		t.EachStored(func(_ *sjtree.Node, mt iso.Match) bool {
			for _, de := range mt.EdgeOf {
				if de != iso.NoEdge {
					referenced[de] = true
				}
			}
			return true
		})
	}

	// Resolve them against the target graph: per content key, target
	// candidates in arrival order, consumed injectively by referenced
	// source edges in source arrival order.
	var resolved map[graph.EdgeID]graph.EdgeID
	if len(referenced) > 0 {
		candidates := make(map[edgeKey][]graph.EdgeID)
		dg.EachEdgeArrival(func(e graph.Edge) bool {
			k := edgeKey{
				src: dg.VertexName(e.Src), dst: dg.VertexName(e.Dst),
				typ: dg.Types().Name(uint32(e.Type)), ts: e.TS,
			}
			candidates[k] = append(candidates[k], e.ID)
			return true
		})
		resolved = make(map[graph.EdgeID]graph.EdgeID, len(referenced))
		sg.EachEdgeArrival(func(e graph.Edge) bool {
			if !referenced[e.ID] {
				return true
			}
			k := edgeKey{
				src: sg.VertexName(e.Src), dst: sg.VertexName(e.Dst),
				typ: sg.Types().Name(uint32(e.Type)), ts: e.TS,
			}
			if ids := candidates[k]; len(ids) > 0 {
				resolved[e.ID] = ids[0]
				candidates[k] = ids[1:]
			}
			return true
		})
	}

	// Vertices cross by name; EnsureVertex creates the ones the target
	// graph has not seen (retro entries may outlive every edge).
	vcache := make(map[graph.VertexID]graph.VertexID)
	mapVertex := func(v graph.VertexID) graph.VertexID {
		if dv, ok := vcache[v]; ok {
			return dv
		}
		dv := dg.EnsureVertex(sg.VertexName(v), sg.Labels().Name(uint32(sg.VertexLabel(v))))
		vcache[v] = dv
		return dv
	}

	// Stored partial matches.
	var restoreErr error
	if t := seng.Tree(); t != nil {
		dt := deng.Tree()
		if dt == nil {
			return 0, fmt.Errorf("persist: transplant target for %q has no tree (decomposition mismatch)", name)
		}
		// mt is a view into the source tree and RestoreStored copies what
		// it is handed, so one scratch match carries them all across.
		out := iso.NewMatch(seng.Query())
		t.EachStored(func(n *sjtree.Node, mt iso.Match) bool {
			for i, dv := range mt.VertexOf {
				out.VertexOf[i] = graph.NoVertex
				if dv != graph.NoVertex {
					out.VertexOf[i] = mapVertex(dv)
				}
			}
			for i, de := range mt.EdgeOf {
				out.EdgeOf[i] = iso.NoEdge
				if de == iso.NoEdge {
					continue
				}
				mapped, ok := resolved[de]
				if !ok {
					dropped++
					return true
				}
				out.EdgeOf[i] = mapped
			}
			out.MinTS, out.MaxTS = mt.MinTS, mt.MaxTS
			if err := dt.RestoreStored(n.ID, out); err != nil {
				restoreErr = err
				return false
			}
			return true
		})
	}
	if restoreErr != nil {
		return dropped, restoreErr
	}

	// Lazy Search enablement, rebuilt from the stored matches just
	// grafted on (core.Engine.RestoreLazyStamps), and queued
	// retrospective work.
	deng.RestoreLazyStamps()
	if retro := seng.PendingRetro(); len(retro) > 0 {
		perLeaf := make([][]graph.VertexID, len(retro))
		for l, vs := range retro {
			if len(vs) == 0 {
				continue
			}
			mapped := make([]graph.VertexID, len(vs))
			for j, v := range vs {
				mapped[j] = mapVertex(v)
			}
			perLeaf[l] = mapped
		}
		deng.RestorePendingRetro(perLeaf)
	}
	deng.RestoreStats(seng.Stats())
	return dropped, nil
}

// ExtractQuery packages one query's migration state as a SaveMulti
// image: a fresh MultiEngine holding only the edges the query's stored
// matches reference, the query registered from its source
// ConfigSnapshot (decomposition pinned), and the live state
// transplanted in. The source engine is not mutated.
func ExtractQuery(src *core.MultiEngine, name string) ([]byte, error) {
	seng := src.QueryEngine(name)
	if seng == nil {
		return nil, fmt.Errorf("persist: extract source does not hold query %q", name)
	}
	tmp := core.NewMulti(core.MultiConfig{Window: src.WindowSize()})

	// Seed the clone graph with exactly the referenced edges, in source
	// arrival order, so TransplantState resolves every stored match.
	referenced := make(map[graph.EdgeID]bool)
	if t := seng.Tree(); t != nil {
		t.EachStored(func(_ *sjtree.Node, mt iso.Match) bool {
			for _, de := range mt.EdgeOf {
				if de != iso.NoEdge {
					referenced[de] = true
				}
			}
			return true
		})
	}
	sg, tg := src.Graph(), tmp.Graph()
	sg.EachEdgeArrival(func(e graph.Edge) bool {
		if !referenced[e.ID] {
			return true
		}
		sv := tg.EnsureVertex(sg.VertexName(e.Src), sg.Labels().Name(uint32(sg.VertexLabel(e.Src))))
		dv := tg.EnsureVertex(sg.VertexName(e.Dst), sg.Labels().Name(uint32(sg.VertexLabel(e.Dst))))
		tg.AddEdge(sv, dv, graph.TypeID(tg.Types().Intern(sg.Types().Name(uint32(e.Type)))), e.TS)
		return true
	})

	if err := tmp.Register(name, seng.Query(), seng.ConfigSnapshot()); err != nil {
		return nil, fmt.Errorf("persist: extract %q: %w", name, err)
	}
	if _, err := TransplantState(tmp, src, name); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := SaveMulti(&buf, tmp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
