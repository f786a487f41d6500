package sjtree

import (
	"slices"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
)

// Results is where InsertInto puts complete matches: the one home a
// complete match has. Each match's binding slices are windows of two
// slabs the Results owns, one of vertex and one of edge bindings, so a
// call that completes thousands of matches fills three arrays that
// outlive it, not thousands of pairs from the pool.
//
// The matches stay valid until Reset and no longer: Reset truncates the
// headers and both slabs, and the next match is written where the first
// one was. A slab that grows moves only what is written after: matches
// already made keep the arrays they were cut from, so a row cut from
// Matches mid-call stays valid until Reset too.
//
// A burst can grow the slabs far beyond what the stream needs the rest of
// the time. The owner calls Swept after each window sweep; the Reset
// after that cuts the slabs back by the rule a node's store compacts by
// (store.sparse): to twice the most matches one call held since the sweep
// before, no smaller than minSlots, and only when they are more than
// eight times that. Nothing is cut back during a call.
//
// The zero value is ready to use. A Results is not safe for concurrent
// use.
type Results struct {
	// Matches lists the complete matches in the order they were made.
	Matches []iso.Match

	verts  []graph.VertexID
	edges  []graph.EdgeID
	nv, ne int // bindings per match in verts and edges

	peak  int  // most matches held at one Reset since the last sweep's
	swept bool // a sweep has passed since: the next Reset may cut back
}

// ResetHook, when non-nil, sees every Results whose matches Reset is
// about to end. Tests set it to Scribble, so that whoever kept a match
// past its lifetime reads the scribble.
var ResetHook func(*Results)

// Scribble overwrites every match r holds — its bindings in both slabs
// and its header — with values no match has.
func Scribble(r *Results) {
	for i, m := range r.Matches {
		for j := range m.VertexOf {
			m.VertexOf[j] = graph.NoVertex - 1
		}
		for j := range m.EdgeOf {
			m.EdgeOf[j] = iso.NoEdge - 1
		}
		r.Matches[i] = iso.Match{MinTS: -1, MaxTS: -2}
	}
}

// Add appends a copy of m. It is how a complete match found without a
// join at the root — a one-leaf tree's candidate, a baseline's search
// result — gets the same home as one a root join writes.
func (r *Results) Add(m iso.Match) {
	out := r.slot(len(m.VertexOf), len(m.EdgeOf))
	copy(out.VertexOf, m.VertexOf)
	copy(out.EdgeOf, m.EdgeOf)
	out.MinTS, out.MaxTS = m.MinTS, m.MaxTS
	r.Matches = append(r.Matches, out)
}

// slot extends both slabs by one match of nv vertex and ne edge
// bindings and returns that room, for the caller to fill and append to
// Matches.
func (r *Results) slot(nv, ne int) iso.Match {
	v, e := len(r.verts), len(r.edges)
	if v+nv > cap(r.verts) || e+ne > cap(r.edges) {
		r.grow(nv, ne)
	}
	r.verts, r.edges = r.verts[:v+nv], r.edges[:e+ne]
	return iso.Match{VertexOf: r.verts[v : v+nv : v+nv], EdgeOf: r.edges[e : e+ne : e+ne]}
}

// grow makes room in both slabs for one more match of nv vertex and ne
// edge bindings, the way append grows a slice, and records the widths
// for the cut-back (every match of one Results has the same).
func (r *Results) grow(nv, ne int) {
	r.nv, r.ne = nv, ne
	r.verts = slices.Grow(r.verts, nv)
	r.edges = slices.Grow(r.edges, ne)
}

// Reset ends the lifetime of every match r holds and empties it, keeping
// its arrays — cut back if a sweep has passed and a burst left them
// oversized. Resetting an empty Results that no sweep has marked costs
// two loads.
func (r *Results) Reset() {
	if len(r.Matches) > 0 || r.swept {
		r.reset()
	}
}

func (r *Results) reset() {
	if ResetHook != nil {
		ResetHook(r)
	}
	r.peak = max(r.peak, len(r.Matches))
	if r.swept {
		if c := cap(r.Matches); c > minSlots && c > 8*r.peak {
			n := max(2*r.peak, minSlots)
			r.Matches = make([]iso.Match, 0, n)
			r.verts = make([]graph.VertexID, 0, n*r.nv)
			r.edges = make([]graph.EdgeID, 0, n*r.ne)
		}
		r.peak, r.swept = 0, false
	}
	// Truncated, not cleared: a header past the length points into one
	// of r's own slabs, or an older one a burst grew out of, which the
	// next cut-back lets go.
	r.Matches, r.verts, r.edges = r.Matches[:0], r.verts[:0], r.edges[:0]
}

// Swept tells r a window sweep has passed: the next Reset cuts back what
// a burst since the sweep before grew (see Results).
func (r *Results) Swept() { r.swept = true }
