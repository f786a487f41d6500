// Package iso implements subgraph isomorphism over the dynamic data
// graph: a VF2-style filter-and-verify backtracking matcher (the
// baseline of Choudhury et al., EDBT 2015, Section 6) and the localized
// variants the SJ-Tree leaves need — matching a small query subgraph
// around a newly arrived edge, or around a vertex (used by Lazy Search's
// retrospective repair and by Algorithm 4's decomposition step).
//
// A match is a bijection between the vertices/edges of a (sub)query and
// a subgraph of the data graph: vertex-injective, edge-distinct,
// direction-, type- and label-respecting. Matches are represented with
// full-length binding arrays indexed by the *global* query vertex/edge
// indices so that partial matches from different SJ-Tree leaves join
// without translation.
package iso

import (
	"math"

	"streamgraph/internal/graph"
	"streamgraph/internal/query"
)

// NoEdge marks an unbound query-edge slot in a Match.
const NoEdge = graph.EdgeID(math.MaxUint32)

// Match is a (partial) embedding of a query graph in the data graph.
// VertexOf[i] is the data vertex bound to query vertex i (graph.NoVertex
// if unbound); EdgeOf[j] is the data edge bound to query edge j (NoEdge
// if unbound). MinTS/MaxTS track τ(g) over the bound edges.
type Match struct {
	VertexOf []graph.VertexID
	EdgeOf   []graph.EdgeID
	MinTS    int64
	MaxTS    int64
}

// NewMatch returns an empty match sized for query q.
func NewMatch(q *query.Graph) Match {
	m := Match{
		VertexOf: make([]graph.VertexID, len(q.Vertices)),
		EdgeOf:   make([]graph.EdgeID, len(q.Edges)),
		MinTS:    math.MaxInt64,
		MaxTS:    math.MinInt64,
	}
	for i := range m.VertexOf {
		m.VertexOf[i] = graph.NoVertex
	}
	for i := range m.EdgeOf {
		m.EdgeOf[i] = NoEdge
	}
	return m
}

// Clone returns a deep copy of m.
func (m Match) Clone() Match {
	c := m
	c.VertexOf = append([]graph.VertexID(nil), m.VertexOf...)
	c.EdgeOf = append([]graph.EdgeID(nil), m.EdgeOf...)
	return c
}

// Span returns τ(g): the duration between the earliest and latest bound
// edge, or 0 for matches with fewer than two edges.
func (m Match) Span() int64 {
	if m.MaxTS < m.MinTS {
		return 0
	}
	return m.MaxTS - m.MinTS
}

// BoundEdges returns the number of bound query edges.
func (m Match) BoundEdges() int {
	n := 0
	for _, e := range m.EdgeOf {
		if e != NoEdge {
			n++
		}
	}
	return n
}

// HasEdge reports whether data edge id participates in the match.
func (m Match) HasEdge(id graph.EdgeID) bool {
	for _, e := range m.EdgeOf {
		if e == id {
			return true
		}
	}
	return false
}

// Matcher runs subgraph isomorphism queries for one query graph against
// one data graph. It is not safe for concurrent use.
type Matcher struct {
	G *graph.Graph
	Q *query.Graph

	// Window, when positive, prunes any embedding whose edge-timestamp
	// span τ(g) is >= Window (the paper requires τ(g) < tW).
	Window int64

	// MaxMatches, when positive, stops the search after that many
	// matches have been produced (guard against pathological queries).
	MaxMatches int

	// MaxStepsPerSearch, when positive, aborts a single search call
	// after that many recursive extension steps — the backtracking
	// search space at hub vertices can explode without producing any
	// match. Aborted searches may miss matches (load shedding).
	MaxStepsPerSearch int64

	// MaxSeq, when positive, hides every data edge whose arrival
	// sequence number exceeds it. The batch ingestion path admits a
	// whole batch into the graph before searching; setting MaxSeq to the
	// anchor edge's Seq makes each search see exactly the graph a serial
	// edge-at-a-time run would have seen, so batch results are identical
	// to the serial schedule. Zero disables the bound.
	MaxSeq uint64

	// Pool, when non-nil, supplies the backing arrays for the clones
	// FindAroundEdge / FindAroundVertex / FindAll retain. The engine
	// wires the SJ-Tree's pool here so expired partial matches are
	// recycled into new candidates. The pool is single-owner: only the
	// engine's own merge-path matcher gets one, never the throwaway
	// matchers of a parallel search fan-out.
	Pool *MatchPool

	// typeIDs caches, per query edge, the data graph's interned ID of
	// the edge's type (unresolvedType until the type is first seen in
	// the data graph; the interner is append-only, so a resolved ID
	// never changes).
	typeIDs []graph.TypeID

	st searchState
}

// unresolvedType marks a query edge whose type the data graph has not
// interned yet.
const unresolvedType = graph.TypeID(math.MaxUint32)

// NewMatcher returns a matcher for q over g.
func NewMatcher(g *graph.Graph, q *query.Graph) *Matcher {
	m := &Matcher{G: g, Q: q, typeIDs: make([]graph.TypeID, len(q.Edges))}
	for i := range m.typeIDs {
		m.typeIDs[i] = unresolvedType
	}
	return m
}

type searchState struct {
	sub       []int // query edge indices being matched
	isSub     []bool
	boundCnt  int
	cur       Match
	vUsed     vertexSet
	emit      func(Match) bool // returns false to stop
	stopped   bool
	calls     int64
	callsThis int64 // steps within the current search call
}

// Calls reports the number of recursive extension steps performed since
// the matcher was created (a cheap work metric used by the benchmarks).
func (m *Matcher) Calls() int64 { return m.st.calls }

func (m *Matcher) initState(sub []int, emit func(Match) bool) {
	st := &m.st
	st.sub = sub
	if cap(st.isSub) < len(m.Q.Edges) {
		st.isSub = make([]bool, len(m.Q.Edges))
	} else {
		st.isSub = st.isSub[:len(m.Q.Edges)]
		for i := range st.isSub {
			st.isSub[i] = false
		}
	}
	for _, ei := range sub {
		st.isSub[ei] = true
	}
	st.boundCnt = 0
	// st.cur's backing arrays are reused across searches: emitted
	// matches are only valid for the duration of the emit call (callers
	// clone to retain), so resetting the slots is safe and avoids two
	// allocations per anchor attempt.
	if st.cur.VertexOf == nil {
		st.cur = NewMatch(m.Q)
	} else {
		for i := range st.cur.VertexOf {
			st.cur.VertexOf[i] = graph.NoVertex
		}
		for i := range st.cur.EdgeOf {
			st.cur.EdgeOf[i] = NoEdge
		}
		st.cur.MinTS, st.cur.MaxTS = math.MaxInt64, math.MinInt64
	}
	// Balanced bind/unbind pairs leave vUsed empty between searches; the
	// reset is a defensive slow path that never fires in normal use.
	if st.vUsed.size != 0 {
		st.vUsed.reset()
	}
	st.emit = emit
	st.stopped = false
	st.callsThis = 0
}

// labelOK reports whether data vertex v satisfies query vertex qv's
// label constraint.
func (m *Matcher) labelOK(qv int, v graph.VertexID) bool {
	want := m.Q.LabelOf(qv)
	if want == query.Wildcard {
		return true
	}
	id, ok := m.G.Labels().Lookup(want)
	if !ok {
		return false
	}
	return m.G.VertexLabel(v) == graph.LabelID(id)
}

// typeID resolves the interned TypeID for query edge qe, reporting false
// if the type has never been seen in the data graph (no match possible).
func (m *Matcher) typeID(qe int) (graph.TypeID, bool) {
	if id := m.typeIDs[qe]; id != unresolvedType {
		return id, true
	}
	id, ok := m.G.Types().Lookup(m.Q.Edges[qe].Type)
	if ok {
		m.typeIDs[qe] = graph.TypeID(id)
	}
	return graph.TypeID(id), ok
}

// Retain deep-copies an emitted match, drawing backing arrays from the
// pool when one is wired. Callers of the streaming Find*Func forms use
// it to keep a match beyond the emit call without paying a fresh
// allocation.
func (m *Matcher) Retain(mt Match) Match {
	if m.Pool != nil {
		return m.Pool.Clone(mt)
	}
	return mt.Clone()
}

// FindAroundEdge finds all embeddings of the subquery (the query edges
// listed in sub, which must induce a weakly connected subgraph) that use
// data edge e for at least one query edge. Every returned mapping binds
// e; distinct automorphic mappings are returned separately, matching the
// bijection-counting semantics of the paper.
func (m *Matcher) FindAroundEdge(sub []int, e graph.Edge) []Match {
	var out []Match
	m.FindAroundEdgeFunc(sub, e, func(mt Match) bool {
		out = append(out, m.Retain(mt))
		return m.MaxMatches <= 0 || len(out) < m.MaxMatches
	})
	return out
}

// FindAroundEdgeFunc is the streaming form of FindAroundEdge. emit
// receives each match (valid only for the duration of the call — clone
// to retain); returning false stops the search.
func (m *Matcher) FindAroundEdgeFunc(sub []int, e graph.Edge, emit func(Match) bool) {
	if m.MaxSeq > 0 && e.Seq > m.MaxSeq {
		return
	}
	for _, qe := range sub {
		tid, ok := m.typeID(qe)
		if !ok || tid != e.Type {
			continue
		}
		qs, qd := m.Q.Edges[qe].Src, m.Q.Edges[qe].Dst
		if !m.labelOK(qs, e.Src) || !m.labelOK(qd, e.Dst) {
			continue
		}
		m.initState(sub, emit)
		m.bindEdge(qe, e)
		m.extend()
		m.unbindEdge(qe, e)
		if m.st.stopped {
			return
		}
	}
}

// FindAroundVertex finds all embeddings of the subquery that bind data
// vertex v to some query vertex of the subquery. Used by Lazy Search's
// retrospective neighborhood search.
func (m *Matcher) FindAroundVertex(sub []int, v graph.VertexID) []Match {
	var out []Match
	m.FindAroundVertexFunc(sub, m.Q.EdgeVertices(sub), v, func(mt Match) bool {
		out = append(out, m.Retain(mt))
		return m.MaxMatches <= 0 || len(out) < m.MaxMatches
	})
	return out
}

// FindAroundVertexFunc is the streaming form of FindAroundVertex. verts
// is the subquery's vertex list (query.Graph.EdgeVertices(sub)): a
// caller that searches the same subquery again and again — the engine's
// retrospective repair, once per newly enabled vertex — computes it once
// (sjtree.Tree.LeafVerts).
func (m *Matcher) FindAroundVertexFunc(sub, verts []int, v graph.VertexID, emit func(Match) bool) {
	for _, qv := range verts {
		if !m.labelOK(qv, v) {
			continue
		}
		m.initState(sub, emit)
		m.st.cur.VertexOf[qv] = v
		m.st.vUsed.add(v)
		m.extend()
		m.st.cur.VertexOf[qv] = graph.NoVertex
		m.st.vUsed.remove(v)
		if m.st.stopped {
			return
		}
	}
}

// FindAll enumerates every embedding of the subquery in the entire data
// graph (the non-incremental VF2-style baseline). The first subquery
// edge is used as the anchor: every data edge of its type is tried.
func (m *Matcher) FindAll(sub []int) []Match {
	var out []Match
	m.FindAllFunc(sub, func(mt Match) bool {
		out = append(out, m.Retain(mt))
		return m.MaxMatches <= 0 || len(out) < m.MaxMatches
	})
	return out
}

// FindAllFunc is the streaming form of FindAll.
func (m *Matcher) FindAllFunc(sub []int, emit func(Match) bool) {
	if len(sub) == 0 {
		return
	}
	anchor := sub[0]
	tid, ok := m.typeID(anchor)
	if !ok {
		return
	}
	qs, qd := m.Q.Edges[anchor].Src, m.Q.Edges[anchor].Dst
	stopped := false
	m.G.EachEdge(func(e graph.Edge) bool {
		if e.Type != tid {
			return true
		}
		if m.MaxSeq > 0 && e.Seq > m.MaxSeq {
			return true
		}
		if !m.labelOK(qs, e.Src) || !m.labelOK(qd, e.Dst) {
			return true
		}
		m.initState(sub, emit)
		m.bindEdge(anchor, e)
		m.extend()
		m.unbindEdge(anchor, e)
		if m.st.stopped {
			stopped = true
			return false
		}
		return true
	})
	_ = stopped
}

// bindEdge binds query edge qe to data edge e, binding both endpoints.
// Callers must have verified type, direction and label compatibility.
func (m *Matcher) bindEdge(qe int, e graph.Edge) {
	st := &m.st
	q := m.Q.Edges[qe]
	st.cur.EdgeOf[qe] = e.ID
	st.boundCnt++
	if st.cur.VertexOf[q.Src] == graph.NoVertex {
		st.cur.VertexOf[q.Src] = e.Src
		st.vUsed.add(e.Src)
	}
	if st.cur.VertexOf[q.Dst] == graph.NoVertex {
		st.cur.VertexOf[q.Dst] = e.Dst
		st.vUsed.add(e.Dst)
	}
	if e.TS < st.cur.MinTS {
		st.cur.MinTS = e.TS
	}
	if e.TS > st.cur.MaxTS {
		st.cur.MaxTS = e.TS
	}
}

func (m *Matcher) unbindEdge(qe int, e graph.Edge) {
	// Timestamps are restored by the caller snapshotting MinTS/MaxTS;
	// see extend. Here we only release the edge and vertex bindings.
	st := &m.st
	q := m.Q.Edges[qe]
	st.cur.EdgeOf[qe] = NoEdge
	st.boundCnt--
	if m.vertexFreeable(q.Src, e.Src) {
		st.cur.VertexOf[q.Src] = graph.NoVertex
		st.vUsed.remove(e.Src)
	}
	if m.vertexFreeable(q.Dst, e.Dst) {
		st.cur.VertexOf[q.Dst] = graph.NoVertex
		st.vUsed.remove(e.Dst)
	}
}

// vertexFreeable reports whether query vertex qv's binding is no longer
// justified by any bound edge and may be released.
func (m *Matcher) vertexFreeable(qv int, _ graph.VertexID) bool {
	st := &m.st
	if st.cur.VertexOf[qv] == graph.NoVertex {
		return false
	}
	for _, ei := range st.sub {
		if st.cur.EdgeOf[ei] == NoEdge {
			continue
		}
		qe := m.Q.Edges[ei]
		if qe.Src == qv || qe.Dst == qv {
			return false
		}
	}
	// Anchor-vertex bindings (FindAroundVertex) are released by the
	// caller, not here; those have no supporting edge either, but the
	// anchor loop owns them. We distinguish by checking bound count:
	// during recursion a vertex with no supporting edges must have been
	// bound by the anchor loop exactly when boundCnt == 0 paths occur.
	return true
}

// extend recursively binds the remaining unbound subquery edges.
func (m *Matcher) extend() {
	st := &m.st
	if st.stopped {
		return
	}
	st.calls++
	st.callsThis++
	if m.MaxStepsPerSearch > 0 && st.callsThis > m.MaxStepsPerSearch {
		st.stopped = true
		return
	}
	if st.boundCnt == len(st.sub) {
		if !st.emit(st.cur) {
			st.stopped = true
		}
		return
	}
	qe := m.pickNext()
	if qe < 0 {
		return // disconnected remainder: unreachable for valid subqueries
	}
	q := m.Q.Edges[qe]
	tid, ok := m.typeID(qe)
	if !ok {
		return
	}
	sv := st.cur.VertexOf[q.Src]
	dv := st.cur.VertexOf[q.Dst]
	savedMin, savedMax := st.cur.MinTS, st.cur.MaxTS

	try := func(e graph.Edge) bool {
		if m.MaxSeq > 0 && e.Seq > m.MaxSeq {
			return true // not yet arrived at the bounded point in time
		}
		if st.cur.hasDataEdge(e.ID, st.sub) {
			return true
		}
		if m.Window > 0 {
			lo, hi := st.cur.MinTS, st.cur.MaxTS
			if e.TS < lo {
				lo = e.TS
			}
			if e.TS > hi {
				hi = e.TS
			}
			if lo <= hi && hi-lo >= m.Window {
				return true
			}
		}
		m.bindEdge(qe, e)
		m.extend()
		m.unbindEdge(qe, e)
		st.cur.MinTS, st.cur.MaxTS = savedMin, savedMax
		return !st.stopped
	}

	switch {
	case sv != graph.NoVertex && dv != graph.NoVertex:
		m.G.EachOut(sv, func(h graph.Half) bool {
			if h.Type != tid || h.Peer != dv {
				return true
			}
			e, ok := m.G.Edge(h.ID)
			if !ok {
				return true
			}
			return try(e)
		})
	case sv != graph.NoVertex:
		m.G.EachOut(sv, func(h graph.Half) bool {
			if h.Type != tid {
				return true
			}
			if st.vUsed.has(h.Peer) {
				return true // injectivity: peer already bound to another query vertex
			}
			if !m.labelOK(q.Dst, h.Peer) {
				return true
			}
			e, ok := m.G.Edge(h.ID)
			if !ok {
				return true
			}
			return try(e)
		})
	case dv != graph.NoVertex:
		m.G.EachIn(dv, func(h graph.Half) bool {
			if h.Type != tid {
				return true
			}
			if st.vUsed.has(h.Peer) {
				return true
			}
			if !m.labelOK(q.Src, h.Peer) {
				return true
			}
			e, ok := m.G.Edge(h.ID)
			if !ok {
				return true
			}
			return try(e)
		})
	}
}

// pickNext selects the next unbound subquery edge that touches a bound
// vertex, preferring edges with both endpoints bound (cheapest to
// verify). Returns -1 if no such edge exists.
func (m *Matcher) pickNext() int {
	st := &m.st
	best, bestScore := -1, -1
	for _, ei := range st.sub {
		if st.cur.EdgeOf[ei] != NoEdge {
			continue
		}
		q := m.Q.Edges[ei]
		score := 0
		if st.cur.VertexOf[q.Src] != graph.NoVertex {
			score++
		}
		if st.cur.VertexOf[q.Dst] != graph.NoVertex {
			score++
		}
		if score > bestScore {
			best, bestScore = ei, score
		}
	}
	if bestScore <= 0 {
		return -1
	}
	return best
}

func (m Match) hasDataEdge(id graph.EdgeID, sub []int) bool {
	for _, ei := range sub {
		if m.EdgeOf[ei] == id {
			return true
		}
	}
	return false
}
