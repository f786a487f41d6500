package iso

import (
	"streamgraph/internal/graph"
	"streamgraph/internal/query"
)

// maxPoolFree bounds the number of recycled matches a pool retains, so
// a burst of released matches cannot pin peak memory forever.
const maxPoolFree = 4096

// MatchPool recycles the backing arrays of discarded matches for one
// query. Every match of a query has the same shape (full-length binding
// arrays indexed by global query vertex/edge indices), so a discarded
// match's arrays can back any future match of the same query. The
// SJ-Tree copies what it stores into its own slabs and writes a complete
// match into its caller's result slab (sjtree.Results), so the pool holds
// only matches in flight below the root: the leaf candidates the engine
// clones (the tree hands each back once inserted, and the engine those it
// discards before insertion), the tree's interior join outputs, and the
// clones sjtree.Tree.Insert hands its emit callback, which come back
// through Release. No complete match of an engine passes through it (see
// "Match lifetimes" in package core). The free list is a stack, so the
// arrays in use are the ones last touched.
//
// A pool is not safe for concurrent use: it must be owned by a single
// goroutine (in the engine, the single-writer merge path).
type MatchPool struct {
	nv, ne int
	free   []Match
	gets   int64 // matches handed out by Get (incl. via Clone)
	fresh  int64 // of those, how many had to be newly allocated
}

// NewMatchPool returns an empty pool for matches of query q.
func NewMatchPool(q *query.Graph) *MatchPool {
	return &MatchPool{nv: len(q.Vertices), ne: len(q.Edges)}
}

// Get returns a match with uninitialized bindings (every slot will be
// overwritten by the caller). Prefer Clone when copying an existing
// match.
func (p *MatchPool) Get() Match {
	p.gets++
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		return m
	}
	p.fresh++
	return Match{
		VertexOf: make([]graph.VertexID, p.nv),
		EdgeOf:   make([]graph.EdgeID, p.ne),
	}
}

// Clone returns a deep copy of src backed by recycled arrays when
// available.
func (p *MatchPool) Clone(src Match) Match {
	m := p.Get()
	copy(m.VertexOf, src.VertexOf)
	copy(m.EdgeOf, src.EdgeOf)
	m.MinTS, m.MaxTS = src.MinTS, src.MaxTS
	return m
}

// Put recycles a match's backing arrays. The caller must guarantee the
// match is exclusively owned: nothing else may reference its VertexOf
// or EdgeOf slices, which will be handed to a future Get. Matches of
// the wrong shape are ignored.
func (p *MatchPool) Put(m Match) {
	if len(m.VertexOf) != p.nv || len(m.EdgeOf) != p.ne || len(p.free) >= maxPoolFree {
		return
	}
	p.free = append(p.free, m)
}

// Len reports the number of recycled matches currently held.
func (p *MatchPool) Len() int { return len(p.free) }

// Stats reports cumulative Get calls and how many of them allocated
// fresh backing arrays; the difference is the number of recycled hits
// — the allocation-free-hot-path claim made observable. Like the pool
// itself, it must be read from the owning goroutine.
func (p *MatchPool) Stats() (gets, fresh int64) { return p.gets, p.fresh }
