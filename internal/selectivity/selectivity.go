// Package selectivity implements the distributional-statistics machinery
// of Choudhury et al. (EDBT 2015, Section 5): streaming histograms of
// 1-edge subgraphs (edge types) and 2-edge paths (Algorithm 5), subgraph
// selectivity, Expected Selectivity of an SJ-Tree decomposition, Relative
// Selectivity between decompositions, and the strategy-selection rule of
// Section 6.5.
//
// The 2-edge path statistics are direction-aware: an incident edge at a
// center vertex is keyed by (edge type, orientation relative to the
// center), which is the paper's Map() function specialized to typed
// directed graphs.
//
// A Collector has two uses. Fed by Add, it is the statistics of what it
// was shown, such as a training prefix. Built by FromGraph or AddSince
// (window.go), it is the statistics of a runtime's window at the moment
// a registration asks — the multi-query engine and the shard router
// keep no collector between registrations and feed none per edge.
package selectivity

import (
	"fmt"
	"sort"

	"streamgraph/internal/graph"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// Dir is the orientation of an edge relative to a center vertex.
type Dir uint8

const (
	// Out means the edge leaves the center vertex.
	Out Dir = 0
	// In means the edge enters the center vertex.
	In Dir = 1
)

// String renders the edge direction ("in" or "out").
func (d Dir) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// dirType packs an interned edge type and its orientation relative to a
// center vertex into one key.
func dirType(t uint32, d Dir) uint32 { return t<<1 | uint32(d) }

func splitDirType(dt uint32) (uint32, Dir) { return dt >> 1, Dir(dt & 1) }

// PathKey identifies a 2-edge path shape: the two direction-aware
// incident types at the center vertex, normalized so A <= B.
type PathKey struct{ A, B uint32 }

func makePathKey(a, b uint32) PathKey {
	if a > b {
		a, b = b, a
	}
	return PathKey{A: a, B: b}
}

// DirTypeKey packs an interned edge type and its orientation relative to
// a center vertex into the single-integer convention used by PathKey.
// It is exported for alternative statistics implementations (e.g. the
// bounded-memory sketch estimator) that must agree with the Collector on
// key layout.
func DirTypeKey(t uint32, d Dir) uint32 { return dirType(t, d) }

// SplitDirTypeKey reverses DirTypeKey.
func SplitDirTypeKey(dt uint32) (uint32, Dir) { return splitDirType(dt) }

// NewPathKey builds the normalized PathKey for two direction-type keys.
func NewPathKey(a, b uint32) PathKey { return makePathKey(a, b) }

// Counter is the hash-table counter of Algorithm 5: Update increments a
// key's count, Count reads it back.
type Counter[K comparable] map[K]int64

// Update adds delta to the count for key.
func (c Counter[K]) Update(key K, delta int64) { c[key] += delta }

// Count returns the count for key (0 when absent).
func (c Counter[K]) Count(key K) int64 { return c[key] }

// Total returns the sum of all counts.
func (c Counter[K]) Total() int64 {
	var t int64
	for _, v := range c {
		t += v
	}
	return t
}

// incident is one vertex's count of incident edges of one dirType.
type incident struct {
	dt uint32
	n  int64
}

// Collector accumulates 1-edge and 2-edge subgraph statistics from an
// edge stream. Every count lives in a flat array: a vertex holds a short
// unordered list of (dirType, count) pairs — one to three entries is the
// common case, so a linear scan beats a hash probe and costs a fraction
// of a map's memory — and the edge and 2-edge-path histograms are dense
// arrays indexed by interned type, grown as types are interned. An
// update is O(k) in the number of distinct incident direction-types at
// the endpoints and allocates only when a vertex, a type or a
// (vertex, dirType) pair is seen for the first time. The path histogram
// is quadratic in the number of distinct edge types (8 bytes per
// dirType pair); streams with unboundedly many types belong to
// sketch.Estimator. The zero value is not usable; call NewCollector.
type Collector struct {
	types     *graph.Interner
	vertIDs   map[string]int32
	perVertex [][]incident // indexed by vertex; entries have n > 0

	edgeCount []int64 // by TypeID, one cell per type ever folded in
	edgeTotal int64

	// pathCount is the lower triangle of the dirType x dirType shape
	// matrix (see pathIndex): interning a type appends rows and never
	// moves an existing cell.
	pathCount []int64
	pathTotal int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		types:   graph.NewInterner(),
		vertIDs: make(map[string]int32),
	}
}

// Types exposes the collector's edge-type interner.
func (c *Collector) Types() *graph.Interner { return c.types }

// triangle is the pathCount offset of dirType d's row.
func triangle(d uint32) int { return int(d) * (int(d) + 1) / 2 }

// pathIndex is the pathCount cell of the 2-edge path shape (a, b).
func pathIndex(a, b uint32) int {
	if a > b {
		a, b = b, a
	}
	return triangle(b) + int(a)
}

// typeID interns an edge type and grows the dense histograms to cover
// both of its dirTypes.
func (c *Collector) typeID(name string) uint32 {
	t := c.types.Intern(name)
	if n := int(t) + 1; n > len(c.edgeCount) {
		c.edgeCount = append(c.edgeCount, make([]int64, n-len(c.edgeCount))...)
		c.pathCount = append(c.pathCount, make([]int64, triangle(uint32(2*n))-len(c.pathCount))...)
	}
	return t
}

func (c *Collector) vertex(name string) int32 {
	if id, ok := c.vertIDs[name]; ok {
		return id
	}
	id := int32(len(c.perVertex))
	c.vertIDs[name] = id
	c.perVertex = append(c.perVertex, nil)
	return id
}

// Add folds one stream edge into the statistics.
func (c *Collector) Add(e stream.Edge) { c.add(&e) }

// add takes the edge by pointer: AddAll's loop would otherwise copy
// each 88-byte edge twice.
func (c *Collector) add(e *stream.Edge) {
	t := c.typeID(e.Type)
	c.edgeCount[t]++
	c.edgeTotal++
	c.addIncident(c.vertex(e.Src), dirType(t, Out))
	c.addIncident(c.vertex(e.Dst), dirType(t, In))
}

func (c *Collector) addIncident(v int32, dt uint32) {
	cv := c.perVertex[v]
	// The new incident edge forms a 2-edge path with every existing
	// incident edge at v (including earlier edges of its own dirType).
	own := -1
	for i, inc := range cv {
		c.pathCount[pathIndex(dt, inc.dt)] += inc.n
		c.pathTotal += inc.n
		if inc.dt == dt {
			own = i
		}
	}
	if own >= 0 {
		cv[own].n++
		return
	}
	c.perVertex[v] = append(cv, incident{dt: dt, n: 1})
}

// Remove reverses Add for an edge previously folded in. It is the
// decrement used when statistics track a sliding window. An edge whose
// type or endpoints were never seen is ignored.
func (c *Collector) Remove(e stream.Edge) {
	t, ok := c.types.Lookup(e.Type)
	src, okSrc := c.vertIDs[e.Src]
	dst, okDst := c.vertIDs[e.Dst]
	if !ok || !okSrc || !okDst || int(t) >= len(c.edgeCount) {
		return
	}
	c.edgeCount[t]--
	c.edgeTotal--
	c.removeIncident(src, dirType(t, Out))
	c.removeIncident(dst, dirType(t, In))
}

func (c *Collector) removeIncident(v int32, dt uint32) {
	cv := c.perVertex[v]
	own := -1
	for i := range cv {
		if cv[i].dt == dt {
			own = i
			break
		}
	}
	if own < 0 {
		return
	}
	if cv[own].n--; cv[own].n == 0 {
		cv[own] = cv[len(cv)-1]
		cv = cv[:len(cv)-1]
		c.perVertex[v] = cv
	}
	for _, inc := range cv {
		c.pathCount[pathIndex(dt, inc.dt)] -= inc.n
		c.pathTotal -= inc.n
	}
}

// AddAll folds a whole slice of edges into the statistics.
func (c *Collector) AddAll(edges []stream.Edge) {
	for i := range edges {
		c.add(&edges[i])
	}
}

// EdgeTotal returns the number of edges folded in.
func (c *Collector) EdgeTotal() int64 { return c.edgeTotal }

// PathTotal returns the total number of 2-edge paths counted.
func (c *Collector) PathTotal() int64 { return c.pathTotal }

// EdgeSelectivity returns S(g) for the 1-edge subgraph with the given
// type: its frequency divided by the total edge count. Unseen types have
// selectivity 0.
func (c *Collector) EdgeSelectivity(etype string) float64 {
	if c.edgeTotal == 0 {
		return 0
	}
	return float64(c.EdgeFrequency(etype)) / float64(c.edgeTotal)
}

// EdgeFrequency returns the raw count for an edge type.
func (c *Collector) EdgeFrequency(etype string) int64 {
	t, ok := c.types.Lookup(etype)
	if !ok || int(t) >= len(c.edgeCount) {
		return 0
	}
	return c.edgeCount[t]
}

// PathFrequency returns the raw count of 2-edge paths whose incident
// direction-types at the shared center vertex are (t1,d1) and (t2,d2).
func (c *Collector) PathFrequency(t1 string, d1 Dir, t2 string, d2 Dir) int64 {
	a, ok1 := c.types.Lookup(t1)
	b, ok2 := c.types.Lookup(t2)
	if !ok1 || !ok2 {
		return 0
	}
	i := pathIndex(dirType(a, d1), dirType(b, d2))
	if i >= len(c.pathCount) {
		return 0
	}
	return c.pathCount[i]
}

// PathSelectivity returns S(g) for the 2-edge path shape (t1,d1)-(t2,d2)
// around a shared center vertex. Unseen shapes have selectivity 0.
func (c *Collector) PathSelectivity(t1 string, d1 Dir, t2 string, d2 Dir) float64 {
	if c.pathTotal == 0 {
		return 0
	}
	return float64(c.PathFrequency(t1, d1, t2, d2)) / float64(c.pathTotal)
}

// PathSeen reports whether the given 2-edge path shape occurs at all.
func (c *Collector) PathSeen(t1 string, d1 Dir, t2 string, d2 Dir) bool {
	return c.PathFrequency(t1, d1, t2, d2) > 0
}

// HistogramEntry is one row of an exported distribution.
type HistogramEntry struct {
	Key   string
	Count int64
}

// EdgeHistogram returns the 1-edge distribution sorted by descending
// count (ties broken by key) — the data behind Figure 6.
func (c *Collector) EdgeHistogram() []HistogramEntry {
	out := make([]HistogramEntry, 0, len(c.edgeCount))
	for t, n := range c.edgeCount {
		out = append(out, HistogramEntry{Key: c.types.Name(uint32(t)), Count: n})
	}
	sortHistogram(out)
	return out
}

// PathHistogram returns the 2-edge path distribution sorted by
// descending count — the data behind Figure 7. Keys render as
// "type1(dir)-type2(dir)" around the center vertex.
func (c *Collector) PathHistogram() []HistogramEntry {
	out := make([]HistogramEntry, 0, c.UniquePathShapes())
	c.eachPath(func(k PathKey, n int64) {
		ta, da := splitDirType(k.A)
		tb, db := splitDirType(k.B)
		key := fmt.Sprintf("%s(%s)-%s(%s)", c.types.Name(ta), da, c.types.Name(tb), db)
		out = append(out, HistogramEntry{Key: key, Count: n})
	})
	sortHistogram(out)
	return out
}

// eachPath visits every 2-edge path shape with a non-zero count.
func (c *Collector) eachPath(fn func(PathKey, int64)) {
	i := 0
	for b := uint32(0); i < len(c.pathCount); b++ {
		for a := uint32(0); a <= b; a++ {
			if n := c.pathCount[i]; n != 0 {
				fn(PathKey{A: a, B: b}, n)
			}
			i++
		}
	}
}

func sortHistogram(h []HistogramEntry) {
	sort.Slice(h, func(i, j int) bool {
		if h[i].Count != h[j].Count {
			return h[i].Count > h[j].Count
		}
		return h[i].Key < h[j].Key
	})
}

// UniquePathShapes reports how many distinct 2-edge path shapes were
// observed (the 14 / 62 / 676 figures of Section 6.3).
func (c *Collector) UniquePathShapes() int {
	shapes := 0
	for _, n := range c.pathCount {
		if n != 0 {
			shapes++
		}
	}
	return shapes
}

// --- Selectivity of query decompositions -------------------------------

// Source is the read side of the distributional statistics: anything
// that can report 1-edge and 2-edge-path selectivities can drive query
// decomposition. *Collector is the exact implementation; the sketch
// package provides a bounded-memory approximate one.
type Source interface {
	// EdgeSelectivity returns S(g) for the 1-edge subgraph with the
	// given type (0 for unseen types).
	EdgeSelectivity(etype string) float64
	// PathSelectivity returns S(g) for the 2-edge path shape whose
	// incident direction-types at the shared center vertex are (t1,d1)
	// and (t2,d2) (0 for unseen shapes).
	PathSelectivity(t1 string, d1 Dir, t2 string, d2 Dir) float64
}

// LeafSelectivityOf returns S(g) for a query subgraph that is a valid
// SJ-Tree leaf under any statistics Source: a single edge, or two edges
// sharing exactly one vertex (a 2-edge path). Two disjoint edges fall
// back to the product of their 1-edge selectivities.
func LeafSelectivityOf(src Source, q *query.Graph, leaf []int) (float64, error) {
	switch len(leaf) {
	case 1:
		return src.EdgeSelectivity(q.Edges[leaf[0]].Type), nil
	case 2:
		e1, e2 := q.Edges[leaf[0]], q.Edges[leaf[1]]
		center, ok := sharedVertex(e1, e2)
		if !ok {
			return src.EdgeSelectivity(e1.Type) * src.EdgeSelectivity(e2.Type), nil
		}
		d1, d2 := orientation(e1, center), orientation(e2, center)
		return src.PathSelectivity(e1.Type, d1, e2.Type, d2), nil
	default:
		return 0, fmt.Errorf("selectivity: leaf with %d edges not supported (want 1 or 2)", len(leaf))
	}
}

// ExpectedSelectivityOf returns Ŝ(T) = Π over leaves of S(leaf)
// (Equation 1) under any statistics Source.
func ExpectedSelectivityOf(src Source, q *query.Graph, leaves [][]int) (float64, error) {
	s := 1.0
	for _, leaf := range leaves {
		ls, err := LeafSelectivityOf(src, q, leaf)
		if err != nil {
			return 0, err
		}
		s *= ls
	}
	return s, nil
}

// RelativeSelectivityOf returns ξ(Tk, T1) = Ŝ(Tk)/Ŝ(T1) (Equation 2)
// under any statistics Source; ok is false when Ŝ(T1) is zero.
func RelativeSelectivityOf(src Source, q *query.Graph, leavesK, leaves1 [][]int) (xi float64, ok bool, err error) {
	sk, err := ExpectedSelectivityOf(src, q, leavesK)
	if err != nil {
		return 0, false, err
	}
	s1, err := ExpectedSelectivityOf(src, q, leaves1)
	if err != nil {
		return 0, false, err
	}
	if s1 == 0 {
		return 0, false, nil
	}
	return sk / s1, true, nil
}

// LeafSelectivity returns S(g) for a query subgraph that is a valid
// SJ-Tree leaf: a single edge, or two edges sharing exactly one vertex
// (a 2-edge path). Two disjoint edges fall back to the product of their
// 1-edge selectivities.
func (c *Collector) LeafSelectivity(q *query.Graph, leaf []int) (float64, error) {
	return LeafSelectivityOf(c, q, leaf)
}

// LeafSeen reports whether the leaf's shape occurs in the observed
// statistics (the query-filtering criterion of Section 6.4).
func (c *Collector) LeafSeen(q *query.Graph, leaf []int) bool {
	s, err := c.LeafSelectivity(q, leaf)
	return err == nil && s > 0
}

// sharedVertex returns the vertex index common to both edges, if exactly
// one exists.
func sharedVertex(e1, e2 query.Edge) (int, bool) {
	var shared []int
	for _, a := range []int{e1.Src, e1.Dst} {
		if a == e2.Src || a == e2.Dst {
			shared = append(shared, a)
		}
	}
	if len(shared) == 1 {
		return shared[0], true
	}
	return 0, false
}

func orientation(e query.Edge, center int) Dir {
	if e.Src == center {
		return Out
	}
	return In
}

// ExpectedSelectivity returns Ŝ(T) = Π over leaves of S(leaf)
// (Equation 1). A decomposition containing an unseen primitive has
// expected selectivity 0.
func (c *Collector) ExpectedSelectivity(q *query.Graph, leaves [][]int) (float64, error) {
	return ExpectedSelectivityOf(c, q, leaves)
}

// RelativeSelectivity returns ξ(Tk, T1) = Ŝ(Tk)/Ŝ(T1) (Equation 2),
// comparing a candidate decomposition against the 1-edge decomposition.
// It returns +Inf semantics avoided: if Ŝ(T1) is zero the result is 0
// with ok=false.
func (c *Collector) RelativeSelectivity(q *query.Graph, leavesK, leaves1 [][]int) (xi float64, ok bool, err error) {
	return RelativeSelectivityOf(c, q, leavesK, leaves1)
}

// DefaultRelSelThreshold is the Section 6.5 heuristic boundary: queries
// with relative selectivity below it should use the PathLazy strategy,
// queries above it SingleLazy.
const DefaultRelSelThreshold = 1e-3

// PreferPathDecomposition applies the Section 6.5 rule.
func PreferPathDecomposition(xi float64) bool { return xi < DefaultRelSelThreshold }
