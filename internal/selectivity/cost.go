package selectivity

import (
	"fmt"

	"streamgraph/internal/query"
)

// This file implements the paper's analytical models: the SJ-Tree space
// complexity estimate of Section 5.2,
//
//	S(T) = Σ_k |E(g_k)| · frequency(g_k),
//
// and the average-work cost model of Appendix A,
//
//	C(T) = C(root(T)) with per-node work
//	  (f_S(g1) + f_S(g2) + O(n1) + O(n2) + min(n1, n2)) / N.
//
// Both take a decomposition (ordered leaves of query edge index lists)
// and score it from the collected stream statistics, enabling
// cost-driven comparison of candidate SJ-Trees without running them.

// LeafFrequency estimates the absolute frequency (expected number of
// stored matches over the observed edges) of a leaf subgraph: the count
// of the 1-edge or 2-edge-path shape it names. A wildcard edge type
// names every type — a wildcard 1-edge leaf has frequency EdgeTotal,
// every edge matches it — where the Source selectivities that order a
// decomposition know no wildcard and report 0. Two disjoint edges count
// as the product of their 1-edge selectivities of the path total.
func (c *Collector) LeafFrequency(q *query.Graph, leaf []int) (float64, error) {
	switch len(leaf) {
	case 1:
		lo, hi := c.typeRange(q.Edges[leaf[0]].Type)
		return float64(c.edgesIn(lo, hi)), nil
	case 2:
		e1, e2 := q.Edges[leaf[0]], q.Edges[leaf[1]]
		lo1, hi1 := c.typeRange(e1.Type)
		lo2, hi2 := c.typeRange(e2.Type)
		center, ok := sharedVertex(e1, e2)
		if !ok {
			if c.edgeTotal == 0 {
				return 0, nil
			}
			n := float64(c.edgeTotal)
			return float64(c.edgesIn(lo1, hi1)) / n * float64(c.edgesIn(lo2, hi2)) / n * float64(c.pathTotal), nil
		}
		d1, d2 := orientation(e1, center), orientation(e2, center)
		var f int64
		for a := lo1; a < hi1; a++ {
			for b := lo2; b < hi2; b++ {
				if d1 == d2 && b < a && lo1 <= b && a < hi2 {
					continue // (b, a) is in range too and names the same shape
				}
				f += c.pathCount[pathIndex(dirType(a, d1), dirType(b, d2))]
			}
		}
		return float64(f), nil
	default:
		return 0, fmt.Errorf("selectivity: leaf with %d edges not supported (want 1 or 2)", len(leaf))
	}
}

// typeRange is the interval of interned types a query edge type names:
// one type, none (never observed), or all of them for the wildcard.
func (c *Collector) typeRange(etype string) (lo, hi uint32) {
	if etype == query.Wildcard {
		return 0, uint32(len(c.edgeCount))
	}
	t, ok := c.types.Lookup(etype)
	if !ok || int(t) >= len(c.edgeCount) {
		return 0, 0
	}
	return t, t + 1
}

// edgesIn sums the 1-edge histogram over a type interval.
func (c *Collector) edgesIn(lo, hi uint32) int64 {
	var n int64
	for _, k := range c.edgeCount[lo:hi] {
		n += k
	}
	return n
}

// SpaceEstimate computes S(T) for a decomposition: the expected number
// of stored partial matches weighted by their edge counts. Internal
// nodes are approximated by the frequency of their most selective
// child, the paper's grouping argument ("the frequency of g_small
// serves as an upper bound for g_big").
func (c *Collector) SpaceEstimate(q *query.Graph, leaves [][]int) (float64, error) {
	if len(leaves) == 0 {
		return 0, nil
	}
	total := 0.0
	// Leaf storage.
	freqs := make([]float64, len(leaves))
	for i, leaf := range leaves {
		f, err := c.LeafFrequency(q, leaf)
		if err != nil {
			return 0, err
		}
		freqs[i] = f
		total += float64(len(leaf)) * f
	}
	// Internal nodes of the left-deep tree: node i joins the prefix
	// (leaves 0..i-1) with leaf i; its frequency is bounded by the
	// minimum frequency among its constituents.
	prefixMin := freqs[0]
	prefixEdges := len(leaves[0])
	for i := 1; i < len(leaves); i++ {
		if freqs[i] < prefixMin {
			prefixMin = freqs[i]
		}
		prefixEdges += len(leaves[i])
		total += float64(prefixEdges) * prefixMin
	}
	return total, nil
}

// CostEstimate computes the Appendix A average-work model C(T): for
// every internal node of the left-deep tree, the expected per-edge work
// is the leaf search costs (for leaf children), the hash probes from
// each side's arrivals, and the expected joins min(n_left, n_right),
// normalized by the stream length N. The returned value is the
// estimated work per incoming edge.
func (c *Collector) CostEstimate(q *query.Graph, leaves [][]int) (float64, error) {
	if len(leaves) == 0 || c.edgeTotal == 0 {
		return 0, nil
	}
	n := float64(c.edgeTotal)
	freqs := make([]float64, len(leaves))
	searchCost := make([]float64, len(leaves))
	for i, leaf := range leaves {
		f, err := c.LeafFrequency(q, leaf)
		if err != nil {
			return 0, err
		}
		freqs[i] = f
		// O(1) for a 1-edge leaf, O(d̄) for a 2-edge leaf (the Appendix's
		// triad analysis); d̄ is approximated by 2·E/V over the sample.
		if len(leaf) == 1 {
			searchCost[i] = 1
		} else {
			searchCost[i] = c.avgDegree()
		}
	}
	// Single leaf: just the search.
	if len(leaves) == 1 {
		return searchCost[0], nil
	}
	work := 0.0
	prefixFreq := freqs[0]
	work += searchCost[0] // leftmost leaf searched on every edge
	for i := 1; i < len(leaves); i++ {
		// Leaf i's search plus the hash-join work at its parent:
		// probes from both sides and the expected joined matches.
		work += searchCost[i]
		work += (prefixFreq + freqs[i] + min(prefixFreq, freqs[i])) / n
		prefixFreq = min(prefixFreq, freqs[i])
	}
	return work, nil
}

// AvgDegreeEstimate reports the mean incident-edge count over observed
// vertices — the d̄ used by the planner's search-cost terms.
func (c *Collector) AvgDegreeEstimate() float64 { return c.avgDegree() }

func (c *Collector) avgDegree() float64 {
	if len(c.perVertex) == 0 {
		return 0
	}
	total := 0.0
	for _, cv := range c.perVertex {
		for _, inc := range cv {
			total += float64(inc.n)
		}
	}
	return total / float64(len(c.perVertex))
}

// ShouldDecomposeFurther implements Observation 3: a subgraph g_k is
// worth decomposing when some sub-subgraph g has
// frequency(g) > frequency(g_k) · d̄ · |V(g_k)| — i.e. the cost of
// growing the larger match around every occurrence of the small one
// exceeds tracking the larger pattern directly.
func (c *Collector) ShouldDecomposeFurther(freqSub, freqWhole float64, numVertices int) bool {
	return freqSub > freqWhole*c.avgDegree()*float64(numVertices)
}
