package selectivity

import (
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
// stored matches over the observed stream) of a leaf subgraph: its
// selectivity times the total count of same-size subgraphs.
func (c *Collector) LeafFrequency(q *query.Graph, leaf []int) (float64, error) {
	s, err := c.LeafSelectivity(q, leaf)
	if err != nil {
		return 0, err
	}
	switch len(leaf) {
	case 1:
		return s * float64(c.edgeTotal), nil
	default:
		return s * float64(c.pathTotal), nil
	}
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
		work += (prefixFreq + freqs[i] + min2(prefixFreq, freqs[i])) / n
		prefixFreq = min2(prefixFreq, freqs[i])
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

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// ShouldDecomposeFurther implements Observation 3: a subgraph g_k is
// worth decomposing when some sub-subgraph g has
// frequency(g) > frequency(g_k) · d̄ · |V(g_k)| — i.e. the cost of
// growing the larger match around every occurrence of the small one
// exceeds tracking the larger pattern directly.
func (c *Collector) ShouldDecomposeFurther(freqSub, freqWhole float64, numVertices int) bool {
	return freqSub > freqWhole*c.avgDegree()*float64(numVertices)
}
