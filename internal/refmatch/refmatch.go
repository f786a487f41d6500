// Package refmatch is the oracle of the vertex-churn differential tests
// (internal/core, internal/persist, internal/shard): a reference data
// graph that never forgets a vertex, evaluated from first principles.
//
// graph.Graph recycles a VertexID once a window sweep finds the vertex
// without an edge, and every engine tier holds VertexIDs in its own
// state (partial matches, the lazy stamps, queued retrospective
// searches, replica filters, snapshots). A stale ID anywhere in that
// state shows up as a match naming the wrong host, a lost match or an
// invented one. The oracle here shares none of it: vertices are keyed
// by name in a table that only grows, nothing is ever evicted, and each
// arriving edge is answered by a plain backtracking search for the
// embeddings of the whole query that contain it and span less than the
// window — the paper's f(Gd, Gq, E_{k+1}) read literally. It is
// quadratic and only fit for test-sized streams.
//
// The reference keeps "the first label a name was seen with" forever,
// where graph.Graph re-labels a name that re-enters after being
// reclaimed. The streams Churn generates derive the label from the
// name, so the two rules cannot disagree on them.
package refmatch

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// Match is one complete match of the oracle.
type Match struct {
	// Key is the canonical name-level form of the match (see Key).
	Key string
	// Query is the name the query was given to Run under.
	Query string
	// First and Last are the smallest and largest stream positions of
	// the edges the match binds; Last is the edge that completed it.
	First, Last int
}

type edge struct {
	src, dst int
	typ      string
	ts       int64
}

// refGraph is the never-recycling reference graph: a name is given the
// next integer the first time it appears and keeps it, with its first
// label, for good.
type refGraph struct {
	ids     map[string]int
	names   []string
	labels  []string
	out, in [][]int // edge positions per vertex
	edges   []edge
}

func (g *refGraph) vertex(name, label string) int {
	if v, ok := g.ids[name]; ok {
		return v
	}
	v := len(g.names)
	g.ids[name] = v
	g.names = append(g.names, name)
	g.labels = append(g.labels, label)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return v
}

func (g *refGraph) add(se stream.Edge) int {
	s := g.vertex(se.Src, se.SrcLabel)
	d := g.vertex(se.Dst, se.DstLabel)
	k := len(g.edges)
	g.edges = append(g.edges, edge{src: s, dst: d, typ: se.Type, ts: se.TS})
	g.out[s] = append(g.out[s], k)
	g.in[d] = append(g.in[d], k)
	return k
}

// Run evaluates every query over the whole stream and returns the
// complete matches in completion order. window <= 0 disables the span
// limit. Queries must be weakly connected.
func Run(queries map[string]*query.Graph, edges []stream.Edge, window int64) []Match {
	names := make([]string, 0, len(queries))
	for name := range queries {
		names = append(names, name)
	}
	sort.Strings(names)
	g := &refGraph{ids: make(map[string]int)}
	var out []Match
	for _, se := range edges {
		k := g.add(se)
		for _, name := range names {
			s := search{g: g, q: queries[name], name: name, window: window, newest: k}
			s.run(&out)
		}
	}
	return out
}

// search enumerates the embeddings of q that bind edge newest and
// otherwise only edges that arrived before it.
type search struct {
	g      *refGraph
	q      *query.Graph
	name   string
	window int64
	newest int

	vOf, eOf []int // query vertex -> data vertex, query edge -> edge position; -1 unbound
	out      *[]Match
}

func (s *search) run(out *[]Match) {
	s.out = out
	s.vOf = make([]int, len(s.q.Vertices))
	s.eOf = make([]int, len(s.q.Edges))
	for qe := range s.q.Edges {
		for i := range s.vOf {
			s.vOf[i] = -1
		}
		for i := range s.eOf {
			s.eOf[i] = -1
		}
		s.try(qe, s.newest, 1)
	}
}

// try binds query edge qe to the data edge at position k when
// compatible and extends the embedding from there.
func (s *search) try(qe, k, bound int) {
	de, pe := s.g.edges[k], s.q.Edges[qe]
	if de.typ != pe.Type {
		return
	}
	for _, used := range s.eOf {
		if used == k {
			return
		}
	}
	undoSrc, ok := s.bind(pe.Src, de.src)
	if !ok {
		return
	}
	undoDst, ok := s.bind(pe.Dst, de.dst)
	if ok {
		s.eOf[qe] = k
		s.extend(bound)
		s.eOf[qe] = -1
		if undoDst {
			s.vOf[pe.Dst] = -1
		}
	}
	if undoSrc {
		s.vOf[pe.Src] = -1
	}
}

// bind maps query vertex qv to data vertex dv, reporting whether the
// mapping is consistent (label, injectivity, earlier bindings) and
// whether it is new (so the caller must undo it).
func (s *search) bind(qv, dv int) (fresh, ok bool) {
	if cur := s.vOf[qv]; cur >= 0 {
		return false, cur == dv
	}
	if want := s.q.LabelOf(qv); want != query.Wildcard && s.g.labels[dv] != want {
		return false, false
	}
	for _, other := range s.vOf {
		if other == dv {
			return false, false
		}
	}
	s.vOf[qv] = dv
	return true, true
}

func (s *search) extend(bound int) {
	if bound == len(s.q.Edges) {
		s.emit()
		return
	}
	// The next unbound query edge with a bound endpoint; one exists
	// because the query is connected.
	for qe, pe := range s.q.Edges {
		if s.eOf[qe] >= 0 {
			continue
		}
		var cands []int
		switch {
		case s.vOf[pe.Src] >= 0:
			cands = s.g.out[s.vOf[pe.Src]]
		case s.vOf[pe.Dst] >= 0:
			cands = s.g.in[s.vOf[pe.Dst]]
		default:
			continue
		}
		for _, k := range cands {
			if k < s.newest {
				s.try(qe, k, bound+1)
			}
		}
		return
	}
}

func (s *search) emit() {
	lo, hi := s.g.edges[s.eOf[0]].ts, s.g.edges[s.eOf[0]].ts
	first := s.newest
	for _, k := range s.eOf {
		lo, hi = min(lo, s.g.edges[k].ts), max(hi, s.g.edges[k].ts)
		first = min(first, k)
	}
	if s.window > 0 && hi-lo >= s.window {
		return
	}
	bindings := make([]string, 0, len(s.vOf))
	for qv, dv := range s.vOf {
		if dv >= 0 {
			bindings = append(bindings, BindingKey(s.q.Vertices[qv].Name, s.g.names[dv]))
		}
	}
	edges := make([]string, len(s.eOf))
	for qe, k := range s.eOf {
		de := s.g.edges[k]
		edges[qe] = EdgeKey(qe, s.g.names[de.src], s.g.names[de.dst], de.typ, de.ts)
	}
	*s.out = append(*s.out, Match{Key: Key(s.name, bindings, edges), Query: s.name, First: first, Last: s.newest})
}

// BindingKey renders one vertex binding of a match for Key.
func BindingKey(queryVertex, dataVertex string) string { return queryVertex + "=" + dataVertex }

// EdgeKey renders one bound edge of a match for Key.
func EdgeKey(queryEdge int, src, dst, typ string, ts int64) string {
	return fmt.Sprintf("%d:%s>%s:%s@%d", queryEdge, src, dst, typ, ts)
}

// Key canonicalizes a match given its BindingKey and EdgeKey parts, in
// any order, so that every tier's resolved matches compare as strings
// with the oracle's. The slices are sorted in place.
func Key(queryName string, bindings, edges []string) string {
	sort.Strings(bindings)
	sort.Strings(edges)
	return queryName + "|" + strings.Join(bindings, ",") + "|" + strings.Join(edges, ",")
}

// MatchKey resolves an engine match against the graph it lives in —
// now, while its edges are live — into the oracle's form.
func MatchKey(queryName string, q *query.Graph, g *graph.Graph, m iso.Match) string {
	var bindings, edges []string
	for qv, dv := range m.VertexOf {
		if dv != graph.NoVertex {
			bindings = append(bindings, BindingKey(q.Vertices[qv].Name, g.VertexName(dv)))
		}
	}
	for qe, eid := range m.EdgeOf {
		if de, ok := g.Edge(eid); ok {
			edges = append(edges, EdgeKey(qe, g.VertexName(de.Src), g.VertexName(de.Dst),
				g.Types().Name(uint32(de.Type)), de.TS))
		}
	}
	return Key(queryName, bindings, edges)
}

// Diff describes how got differs from want, or returns "" when the two
// multisets are equal.
func Diff(want, got map[string]int) string {
	var lines []string
	for k, n := range want {
		if got[k] != n {
			lines = append(lines, fmt.Sprintf("  %s: want %d, got %d", k, n, got[k]))
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			lines = append(lines, fmt.Sprintf("  %s: want 0, got %d", k, n))
		}
	}
	if len(lines) == 0 {
		return ""
	}
	sort.Strings(lines)
	if len(lines) > 8 {
		lines = append(lines[:8], fmt.Sprintf("  ... and %d more", len(lines)-8))
	}
	return strings.Join(lines, "\n")
}

// The churn workload every tier's differential runs: ChurnEdges edges
// over a domain of ChurnDomain hosts under a window of ChurnWindow
// ticks, which holds at most ChurnLive vertices at a time.
const (
	ChurnEdges  = 6000
	ChurnDomain = 50000
	ChurnWindow = 16
	ChurnLive   = 64
)

// ChurnQueries are the queries of the churn workload: a wildcard
// 3-path, a labeled 2-path and a labeled fan.
func ChurnQueries() map[string]*query.Graph {
	return map[string]*query.Graph{
		"path3": query.NewPath(query.Wildcard, "TCP", "UDP", "ICMP"),
		"path2": query.NewPath("ip", "UDP", "TCP"),
		"fan": {
			Vertices: []query.Vertex{
				{Name: "a", Label: "srv"}, {Name: "b"}, {Name: "c"},
			},
			Edges: []query.Edge{
				{Src: 0, Dst: 1, Type: "TCP"},
				{Src: 0, Dst: 2, Type: "ICMP"},
			},
		},
	}
}

// ChurnWorkload generates the churn stream for a seed and evaluates
// ChurnQueries over it, returning the oracle's matches in completion
// order. It fails when the stream is not what the differential needs:
// a name domain at least 50x the live set, a live set within ChurnLive,
// and enough matches of every query to compare.
func ChurnWorkload(seed int64) ([]stream.Edge, []Match, error) {
	edges := Churn(seed, ChurnEdges, ChurnDomain)
	names, live := churnRatio(edges, ChurnWindow)
	if names < 50*live || live > ChurnLive {
		return nil, nil, fmt.Errorf("refmatch: churn stream names %d hosts with up to %d live; want >= 50x the live set and <= %d live", names, live, ChurnLive)
	}
	want := Run(ChurnQueries(), edges, ChurnWindow)
	distinct := make(map[string]map[string]bool)
	for _, m := range want {
		if distinct[m.Query] == nil {
			distinct[m.Query] = make(map[string]bool)
		}
		distinct[m.Query][m.Key] = true
	}
	for name := range ChurnQueries() {
		if len(distinct[name]) < 20 {
			return nil, nil, fmt.Errorf("refmatch: the oracle finds only %d distinct %s matches; the differential would be vacuous", len(distinct[name]), name)
		}
	}
	return edges, want, nil
}

// ByQuery groups matches into one multiset of keys per query.
func ByQuery(ms []Match) map[string]map[string]int {
	out := make(map[string]map[string]int)
	for _, m := range ms {
		if out[m.Query] == nil {
			out[m.Query] = make(map[string]int)
		}
		out[m.Query][m.Key]++
	}
	return out
}

// churnTypes are the edge types Churn draws from; GRE appears in no
// ChurnQueries pattern, so a GRE-only query can come and go beside them.
var churnTypes = []string{"TCP", "UDP", "ICMP", "GRE"}

// Churn generates a stream whose vertex names turn over far faster
// than its window: a handful of small host groups exchange bursts of
// typed edges (so multi-edge patterns do complete), and every few edges
// a group is replaced wholesale by names drawn from a domain of
// `domain` hosts. Timestamps advance by 0 or 1 per edge. With the
// windows the churn tests use (a few dozen ticks) a few dozen vertices
// are live at a time while the stream names thousands, so every
// VertexID is handed out again many times over, and a name that comes
// back does so long after a sweep has reclaimed it. A host's label is a
// function of its name.
func Churn(seed int64, n, domain int) []stream.Edge {
	rng := rand.New(rand.NewSource(seed))
	host := func() (string, string) {
		h := rng.Intn(domain)
		label := "ip"
		if h%5 == 0 {
			label = "srv"
		}
		return fmt.Sprintf("h%d", h), label
	}
	type member struct{ name, label string }
	const groups, size = 4, 4
	fresh := func() []member {
		g := make([]member, 0, size)
		for len(g) < size {
			name, label := host()
			dup := false
			for _, m := range g {
				dup = dup || m.name == name
			}
			if !dup {
				g = append(g, member{name, label})
			}
		}
		return g
	}
	active := make([][]member, groups)
	for i := range active {
		active[i] = fresh()
	}
	out := make([]stream.Edge, 0, n)
	ts := int64(1)
	for len(out) < n {
		if rng.Intn(5) == 0 {
			active[rng.Intn(groups)] = fresh()
		}
		g := active[rng.Intn(groups)]
		a := rng.Intn(size)
		b := (a + 1 + rng.Intn(size-1)) % size
		ts += int64(rng.Intn(2))
		out = append(out, stream.Edge{
			Src: g[a].name, SrcLabel: g[a].label,
			Dst: g[b].name, DstLabel: g[b].label,
			Type: churnTypes[rng.Intn(len(churnTypes))], TS: ts,
		})
	}
	return out
}

// churnRatio measures a stream against a window: the number of distinct
// vertex names in the whole stream, and the largest number of distinct
// names on edges inside any window of the given width.
func churnRatio(edges []stream.Edge, window int64) (names, peakLive int) {
	all := make(map[string]bool)
	live := make(map[string]int)
	lo := 0
	for _, e := range edges {
		all[e.Src], all[e.Dst] = true, true
		live[e.Src]++
		live[e.Dst]++
		for edges[lo].TS <= e.TS-window {
			for _, name := range []string{edges[lo].Src, edges[lo].Dst} {
				if live[name]--; live[name] == 0 {
					delete(live, name)
				}
			}
			lo++
		}
		peakLive = max(peakLive, len(live))
	}
	return len(all), peakLive
}
