package iso

import (
	"streamgraph/internal/graph"
	"streamgraph/internal/query"
)

// maxPoolFree bounds the number of recycled matches a pool retains, so
// a burst of evictions or of released complete matches cannot pin peak
// memory forever; Trim returns what quiet periods leave unused.
const maxPoolFree = 4096

// MatchPool recycles the backing arrays of discarded matches for one
// query. Every match of a query has the same shape (full-length binding
// arrays indexed by global query vertex/edge indices), so a discarded
// match's arrays can back any future match of the same query. The
// SJ-Tree feeds its pool from window expiry and from candidates the
// engine discards before insertion, and the engine hands back the
// complete matches of a call when the next one starts (see "Match
// lifetimes" in package core); join outputs and retained clones draw
// from it, making the steady-state join and emit paths allocation-free.
//
// The free list is a stack, so what sits below the lowest level it
// reached in a period was not needed in that period: Trim drops what two
// periods in a row left untouched, and the pool follows the working set
// down as well as up.
//
// A pool is not safe for concurrent use: it must be owned by a single
// goroutine (in the engine, the single-writer merge path).
type MatchPool struct {
	nv, ne int
	free   []Match
	gets   int64 // matches handed out by Get (incl. via Clone)
	fresh  int64 // of those, how many had to be newly allocated

	// Trim's record of the period it opened, and of the one before.
	trimLen  int   // len(free) when the last Trim returned
	trimGets int64 // gets at that moment
	prevLow  int   // the previous period's low-water mark, less what its Trim dropped
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

// Trim ends a period: it drops the recycled matches no Get can have
// reached in this period or the one before — the bottom of the stack,
// below both low-water marks. A period's mark is taken from counters Get
// keeps anyway, so that Get itself stays a pop: Puts only raise the list,
// hence it never stood lower than its length when the period began less
// the Gets since. The SJ-Tree calls Trim at every window sweep, so a pool
// filled by one burst gives the arrays back two quiet sweeps later, while
// demand that merely alternates from one sweep to the next keeps them.
// The counters reported by Stats are not affected.
func (p *MatchPool) Trim() {
	low := max(p.trimLen-int(p.gets-p.trimGets), 0)
	drop := min(low, p.prevLow)
	if drop > 0 {
		n := copy(p.free, p.free[drop:])
		clear(p.free[n:])
		p.free = p.free[:n]
	}
	p.prevLow = low - drop
	p.trimLen, p.trimGets = len(p.free), p.gets
}

// Len reports the number of recycled matches currently held.
func (p *MatchPool) Len() int { return len(p.free) }

// Stats reports cumulative Get calls and how many of them allocated
// fresh backing arrays; the difference is the number of recycled hits
// — the allocation-free-hot-path claim made observable. Like the pool
// itself, it must be read from the owning goroutine.
func (p *MatchPool) Stats() (gets, fresh int64) { return p.gets, p.fresh }
