// Package plan implements cost-driven SJ-Tree generation beyond the
// paper's greedy heuristic. Section 5 of Choudhury et al. (EDBT 2015)
// motivates the greedy BUILD-SJ-TREE with the join-ordering literature
// and explicitly points at "techniques such as dynamic programming and
// genetic algorithms to find the optimal join order" as the follow-up;
// this package provides both:
//
//   - Optimal: an exact dynamic program over edge subsets that searches
//     every valid (partition, left-deep order) pair at once, keeping a
//     Pareto frontier of (work, space, prefix frequency) per subset.
//   - Genetic: a seeded genetic algorithm over valid decompositions for
//     queries too large for the exact search.
//
// Primitives are 1-edge subgraphs and 2-edge paths — the two shapes
// whose frequencies the statistics machinery estimates. Scores come
// from the paper's analytical models: the Appendix A per-edge work C(T)
// and the Section 5.2 space S(T).
package plan

import (
	"fmt"
	"math"
	"sort"

	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
)

// Stats is the statistics surface the planner needs: selectivities plus
// the totals that turn them into absolute frequencies. Both the exact
// selectivity.Collector and the bounded-memory sketch.Estimator satisfy
// it.
type Stats interface {
	selectivity.Source
	EdgeTotal() int64
	PathTotal() int64
}

// Score is the planner's estimate of a decomposition's runtime behavior.
type Score struct {
	// Work is the Appendix A estimate of average work per incoming edge.
	Work float64
	// Space is the Section 5.2 estimate S(T) of stored partial matches
	// weighted by their sizes, over the observed stream length.
	Space float64
	// ExpectedSel is Ŝ(T), the product of leaf selectivities.
	ExpectedSel float64
}

// Planner scores and optimizes decompositions for one statistics source.
type Planner struct {
	// Stats supplies selectivities and totals. Required.
	Stats Stats

	// AvgDegree is d̄, the average vertex degree used by the search-cost
	// terms (a 2-edge leaf search costs O(d̄)). Zero defaults to 8.
	AvgDegree float64

	// MaxDPEdges bounds the exact optimizer; queries with more edges are
	// rejected by Optimal (use Genetic). Zero defaults to 14.
	MaxDPEdges int

	// NonLazy switches the work model to the paper's Appendix A form,
	// which charges every leaf search on every edge (the Single/Path
	// strategies). The default (false) models Lazy Search: the search
	// for leaf i>0 only runs near vertices the preceding prefix has
	// enabled, so its cost is gated by min(1, prefixFreq/N) — this is
	// what makes rare-first orders strictly cheaper (Theorem 1).
	NonLazy bool

	// NumVertices is the (estimated) vertex count of the data stream,
	// used by the independence fallback for join cardinalities between
	// disconnected pieces. Zero derives it as 2·EdgeTotal/AvgDegree.
	NumVertices float64

	// Objective folds a Score into the scalar minimized by the
	// optimizers. Nil defaults to work + space amortized per stream
	// edge: Work + Space/N.
	Objective func(Score) float64
}

func (p *Planner) avgDegree() float64 {
	if p.AvgDegree > 0 {
		return p.AvgDegree
	}
	return 8
}

func (p *Planner) objective(s Score) float64 {
	if p.Objective != nil {
		return p.Objective(s)
	}
	n := float64(p.Stats.EdgeTotal())
	if n < 1 {
		n = 1
	}
	return s.Work + s.Space/n
}

// --- Primitive enumeration ----------------------------------------------

// Primitive is a candidate SJ-Tree leaf with its precomputed score
// inputs.
type Primitive struct {
	Edges      []int   // query edge indices, sorted
	Freq       float64 // expected stored matches over the observed stream
	SearchCost float64 // per-anchored-search cost (1 or d̄)
	Sel        float64 // subgraph selectivity within its size class

	mask  uint32 // bitmask over query edges
	verts uint64 // bitmask over query vertices
}

// Primitives enumerates every admissible leaf of q: all single edges
// and all 2-edge paths (edge pairs sharing exactly one vertex). Unseen
// shapes (selectivity zero) are kept with frequency zero; the optimizers
// avoid them through the score, mirroring the paper's fallback behavior.
func (p *Planner) Primitives(q *query.Graph) ([]Primitive, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.Edges) > 32 {
		return nil, fmt.Errorf("plan: query has %d edges; planner supports at most 32", len(q.Edges))
	}
	if len(q.Vertices) > 64 {
		return nil, fmt.Errorf("plan: query has %d vertices; planner supports at most 64", len(q.Vertices))
	}
	d := p.avgDegree()
	var prims []Primitive

	for i := range q.Edges {
		sel := p.Stats.EdgeSelectivity(q.Edges[i].Type)
		prims = append(prims, Primitive{
			Edges:      []int{i},
			Freq:       sel * float64(p.Stats.EdgeTotal()),
			SearchCost: 1,
			Sel:        sel,
			mask:       1 << uint(i),
			verts:      vertMask(q, []int{i}),
		})
	}
	for i := range q.Edges {
		for j := i + 1; j < len(q.Edges); j++ {
			if !sharesExactlyOneVertex(q.Edges[i], q.Edges[j]) {
				continue
			}
			sel, err := selectivity.LeafSelectivityOf(p.Stats, q, []int{i, j})
			if err != nil {
				return nil, err
			}
			prims = append(prims, Primitive{
				Edges:      []int{i, j},
				Freq:       sel * float64(p.Stats.PathTotal()),
				SearchCost: d,
				Sel:        sel,
				mask:       1<<uint(i) | 1<<uint(j),
				verts:      vertMask(q, []int{i, j}),
			})
		}
	}
	return prims, nil
}

func vertMask(q *query.Graph, edges []int) uint64 {
	var m uint64
	for _, ei := range edges {
		m |= 1 << uint(q.Edges[ei].Src)
		m |= 1 << uint(q.Edges[ei].Dst)
	}
	return m
}

func sharesExactlyOneVertex(a, b query.Edge) bool {
	shared := 0
	for _, v := range []int{a.Src, a.Dst} {
		if v == b.Src || v == b.Dst {
			shared++
		}
	}
	return shared == 1
}

// --- Scoring -------------------------------------------------------------

// The join-cardinality model. The paper's Section 5.2 approximates an
// internal node's frequency by the minimum of its children's — an
// "upper bound" that in fact underpredicts badly on skewed streams,
// where joining two frequent subgraphs through a hub vertex multiplies
// rather than minimizes (the number of TCP->TCP two-hop paths is
// Σ_v d_in(v)·d_out(v), not min(f_TCP, f_TCP)). The 2-edge path
// distribution the engine already collects measures exactly those
// per-vertex degree products, so the planner estimates the join of a
// prefix with a new leaf as
//
//	f(P ⋈ L) = f(P) · ext,  ext = min over connecting query-edge pairs
//	           (pe ∈ P, le ∈ L sharing one vertex) of
//	           wedgeFreq(pe, le) / edgeFreq(pe)
//
// — the average number of le-continuations per pe instance, taking the
// most selective connection when the pieces touch in several places.
// For two single-edge leaves this reproduces the measured wedge count
// exactly. Pieces with no 1-vertex connection fall back to the
// independence estimate f(P)·f(L)/V.

// extFactor returns ext for appending primitive pr to a prefix
// consisting of the given query edges.
func (p *Planner) extFactor(q *query.Graph, prefixEdges []int, pr Primitive) float64 {
	best := math.Inf(1)
	for _, pe := range prefixEdges {
		fpe := p.Stats.EdgeSelectivity(q.Edges[pe].Type) * float64(p.Stats.EdgeTotal())
		for _, le := range pr.Edges {
			if !sharesExactlyOneVertex(q.Edges[pe], q.Edges[le]) {
				continue
			}
			sel, err := selectivity.LeafSelectivityOf(p.Stats, q, []int{pe, le})
			if err != nil {
				continue
			}
			wedge := sel * float64(p.Stats.PathTotal())
			if fpe <= 0 {
				// An unseen prefix edge type: the prefix is empty in
				// expectation, any continuation factor will do.
				return 0
			}
			if ext := wedge / fpe; ext < best {
				best = ext
			}
		}
	}
	if math.IsInf(best, 1) {
		// No single-shared-vertex connection (disconnected piece or a
		// parallel edge): independence estimate.
		return pr.Freq / p.vertexCount()
	}
	return best
}

func (p *Planner) vertexCount() float64 {
	if p.NumVertices > 0 {
		return p.NumVertices
	}
	v := 2 * float64(p.Stats.EdgeTotal()) / p.avgDegree()
	if v < 1 {
		v = 1
	}
	return v
}

// chainState carries the running score of a partially built
// decomposition: accumulated work and space, the estimated frequency of
// the joined prefix, and the selectivity product.
type chainState struct {
	work     float64
	space    float64
	prefFreq float64
	selProd  float64
}

func (p *Planner) startChain(pr Primitive) chainState {
	return chainState{
		work:     pr.SearchCost,
		space:    float64(len(pr.Edges)) * pr.Freq,
		prefFreq: pr.Freq,
		selProd:  pr.Sel,
	}
}

// extendChain appends pr to the chain. prefixEdgeCount is the number of
// query edges covered before pr; ext is extFactor for this step.
func (p *Planner) extendChain(st chainState, pr Primitive, prefixEdgeCount int, ext float64, n float64) chainState {
	fJoin := st.prefFreq * ext
	return chainState{
		work: st.work + pr.SearchCost*p.searchGate(st.prefFreq, n) +
			(st.prefFreq+pr.Freq+fJoin)/n,
		space: st.space + float64(len(pr.Edges))*pr.Freq +
			float64(prefixEdgeCount+len(pr.Edges))*fJoin,
		prefFreq: fJoin,
		selProd:  st.selProd * pr.Sel,
	}
}

func (st chainState) score() Score {
	return Score{Work: st.work, Space: st.space, ExpectedSel: st.selProd}
}

// ScoreLeaves evaluates an ordered decomposition with the analytical
// models. It accepts any leaves the primitive set admits (1-edge or
// 2-edge path).
func (p *Planner) ScoreLeaves(q *query.Graph, leaves [][]int) (Score, error) {
	if err := ValidateDecomposition(q, leaves); err != nil {
		return Score{}, err
	}
	prims, err := p.resolve(q, leaves)
	if err != nil {
		return Score{}, err
	}
	n := float64(p.Stats.EdgeTotal())
	if n < 1 {
		n = 1
	}
	st := p.startChain(prims[0])
	prefix := append([]int(nil), prims[0].Edges...)
	for i := 1; i < len(prims); i++ {
		ext := p.extFactor(q, prefix, prims[i])
		st = p.extendChain(st, prims[i], len(prefix), ext, n)
		prefix = append(prefix, prims[i].Edges...)
	}
	return st.score(), nil
}

// searchGate is the fraction of edge arrivals on which a non-first
// leaf's anchored search actually runs: 1 under the non-lazy model,
// min(1, prefixFreq/N) under Lazy Search.
func (p *Planner) searchGate(prefixFreq, n float64) float64 {
	if p.NonLazy {
		return 1
	}
	return math.Min(1, prefixFreq/n)
}

// resolve maps leaf edge lists back to scored primitives.
func (p *Planner) resolve(q *query.Graph, leaves [][]int) ([]Primitive, error) {
	prims, err := p.Primitives(q)
	if err != nil {
		return nil, err
	}
	byMask := make(map[uint32]Primitive, len(prims))
	for _, pr := range prims {
		byMask[pr.mask] = pr
	}
	out := make([]Primitive, 0, len(leaves))
	for _, leaf := range leaves {
		var m uint32
		for _, ei := range leaf {
			m |= 1 << uint(ei)
		}
		pr, ok := byMask[m]
		if !ok {
			return nil, fmt.Errorf("plan: leaf %v is not an admissible primitive", leaf)
		}
		out = append(out, pr)
	}
	return out, nil
}

// ValidateDecomposition checks that leaves disjointly cover every query
// edge and that each leaf after the first touches a vertex already
// covered (the frontier discipline the engine's Lazy Search relies on
// for connected queries; disconnected queries are exempt from the
// frontier check once no touching leaf remains).
func ValidateDecomposition(q *query.Graph, leaves [][]int) error {
	if len(leaves) == 0 {
		return fmt.Errorf("plan: empty decomposition")
	}
	if len(q.Vertices) > 64 {
		return fmt.Errorf("plan: query has %d vertices; planner supports at most 64", len(q.Vertices))
	}
	covered := make([]bool, len(q.Edges))
	var frontier uint64
	connected := q.Connected()
	for i, leaf := range leaves {
		if len(leaf) == 0 {
			return fmt.Errorf("plan: leaf %d is empty", i)
		}
		for _, ei := range leaf {
			if ei < 0 || ei >= len(q.Edges) {
				return fmt.Errorf("plan: leaf %d references edge %d out of range", i, ei)
			}
			if covered[ei] {
				return fmt.Errorf("plan: edge %d covered twice", ei)
			}
			covered[ei] = true
		}
		vm := vertMask(q, leaf)
		if i > 0 && connected && frontier&vm == 0 {
			return fmt.Errorf("plan: leaf %d (%v) does not touch the frontier", i, leaf)
		}
		frontier |= vm
	}
	for ei, ok := range covered {
		if !ok {
			return fmt.Errorf("plan: edge %d not covered", ei)
		}
	}
	return nil
}

// Leaves renders primitives back to the engine's leaf representation.
func Leaves(prims []Primitive) [][]int {
	out := make([][]int, len(prims))
	for i, pr := range prims {
		out[i] = append([]int(nil), pr.Edges...)
	}
	return out
}

// sortPrimitives orders primitives by ascending frequency then mask for
// deterministic iteration.
func sortPrimitives(prims []Primitive) {
	sort.Slice(prims, func(i, j int) bool {
		if prims[i].Freq != prims[j].Freq {
			return prims[i].Freq < prims[j].Freq
		}
		return prims[i].mask < prims[j].mask
	})
}
