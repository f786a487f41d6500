// Package decompose implements the automatic SJ-Tree generation of
// Choudhury et al. (EDBT 2015, Section 5): the greedy BUILD-SJ-TREE
// procedure (Algorithm 4) that repeatedly removes the most selective
// primitive (1-edge subgraph or 2-edge path) touching the current
// frontier, the two decomposition strategies of Section 5.2, automatic
// strategy selection via Relative Selectivity (Section 6.5), and the
// ASCII on-disk format for decompositions (Section 6.1).
package decompose

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
)

// Kind selects the primitive set used by the decomposition.
type Kind int

const (
	// Single decomposes the query into 1-edge subgraphs.
	Single Kind = iota
	// Path decomposes into 2-edge paths, with 1-edge leaves for any
	// leftover isolated edges (the paper's "2-edge decomposition").
	Path
)

// String renders the decomposition kind ("single" or "path").
func (k Kind) String() string {
	if k == Path {
		return "path"
	}
	return "single"
}

// SingleDecompose orders the query's edges by ascending 1-edge
// selectivity under Algorithm 4's frontier discipline: the most
// selective edge first, then always the most selective remaining edge
// incident to an already-chosen vertex.
func SingleDecompose(q *query.Graph, src selectivity.Source) ([][]int, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	remaining := make(map[int]bool, len(q.Edges))
	for i := range q.Edges {
		remaining[i] = true
	}
	frontier := make(map[int]bool)
	var leaves [][]int
	for len(remaining) > 0 {
		best, bestSel := -1, 0.0
		// Prefer frontier-incident edges; fall back to any edge when the
		// frontier cannot be extended (disconnected query).
		for pass := 0; pass < 2 && best < 0; pass++ {
			for _, ei := range sortedKeys(remaining) {
				e := q.Edges[ei]
				if pass == 0 && len(frontier) > 0 && !frontier[e.Src] && !frontier[e.Dst] {
					continue
				}
				s := src.EdgeSelectivity(e.Type)
				if best < 0 || s < bestSel {
					best, bestSel = ei, s
				}
			}
		}
		delete(remaining, best)
		frontier[q.Edges[best].Src] = true
		frontier[q.Edges[best].Dst] = true
		leaves = append(leaves, []int{best})
	}
	return leaves, nil
}

// PathDecompose decomposes the query into 2-edge paths ordered by
// ascending 2-edge path selectivity under the frontier discipline, with
// 1-edge leaves for leftover isolated edges. Following Section 6.4, if
// the query contains a 2-edge path never observed in the statistics the
// decomposition falls back to the single-edge strategy; fellBack
// reports when that happened.
func PathDecompose(q *query.Graph, src selectivity.Source) (leaves [][]int, fellBack bool, err error) {
	if err := q.Validate(); err != nil {
		return nil, false, err
	}
	remaining := make(map[int]bool, len(q.Edges))
	for i := range q.Edges {
		remaining[i] = true
	}
	frontier := make(map[int]bool)
	for len(remaining) > 0 {
		pair, found, unseenOnly := bestPair(q, src, remaining, frontier)
		if unseenOnly {
			// Every available 2-edge primitive is a path shape never
			// observed in the stream: resort to the single-edge
			// decomposition (Section 6.4).
			single, err := SingleDecompose(q, src)
			return single, true, err
		}
		if !found {
			// No pair left (isolated edges): emit 1-edge leaves by
			// ascending edge selectivity, frontier-first.
			rest, err := singleRest(q, src, remaining, frontier)
			if err != nil {
				return nil, false, err
			}
			leaves = append(leaves, rest...)
			return leaves, false, nil
		}
		leaves = append(leaves, []int{pair[0], pair[1]})
		for _, ei := range pair {
			delete(remaining, ei)
			frontier[q.Edges[ei].Src] = true
			frontier[q.Edges[ei].Dst] = true
		}
	}
	return leaves, false, nil
}

// bestPair finds the minimum-selectivity *observed* 2-edge path among
// the remaining edges, honoring the frontier constraint when possible.
// unseenOnly reports that pairs exist but every one of them is a shape
// never observed in the statistics.
func bestPair(q *query.Graph, src selectivity.Source, remaining, frontier map[int]bool) (pair [2]int, found, unseenOnly bool) {
	keys := sortedKeys(remaining)
	best := [2]int{-1, -1}
	bestSel := 0.0
	anyPair := false
	consider := func(i, j int) {
		anyPair = true
		s, err := selectivity.LeafSelectivityOf(src, q, []int{i, j})
		if err != nil || s == 0 {
			return
		}
		if best[0] < 0 || s < bestSel {
			best = [2]int{i, j}
			bestSel = s
		}
	}
	for pass := 0; pass < 2 && best[0] < 0; pass++ {
		for a := 0; a < len(keys); a++ {
			for b := a + 1; b < len(keys); b++ {
				i, j := keys[a], keys[b]
				if !sharesExactlyOneVertex(q.Edges[i], q.Edges[j]) {
					continue
				}
				if pass == 0 && len(frontier) > 0 && !touchesFrontier(q, frontier, i, j) {
					continue
				}
				consider(i, j)
			}
		}
	}
	if best[0] < 0 {
		return pair, false, anyPair
	}
	return best, true, false
}

func singleRest(q *query.Graph, src selectivity.Source, remaining, frontier map[int]bool) ([][]int, error) {
	var leaves [][]int
	for len(remaining) > 0 {
		best, bestSel := -1, 0.0
		for pass := 0; pass < 2 && best < 0; pass++ {
			for _, ei := range sortedKeys(remaining) {
				e := q.Edges[ei]
				if pass == 0 && len(frontier) > 0 && !frontier[e.Src] && !frontier[e.Dst] {
					continue
				}
				if s := src.EdgeSelectivity(e.Type); best < 0 || s < bestSel {
					best, bestSel = ei, s
				}
			}
		}
		delete(remaining, best)
		frontier[q.Edges[best].Src] = true
		frontier[q.Edges[best].Dst] = true
		leaves = append(leaves, []int{best})
	}
	return leaves, nil
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

func touchesFrontier(q *query.Graph, frontier map[int]bool, edges ...int) bool {
	for _, ei := range edges {
		if frontier[q.Edges[ei].Src] || frontier[q.Edges[ei].Dst] {
			return true
		}
	}
	return false
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Auto computes both decompositions and applies the Section 6.5 rule:
// when ξ(T_path, T_single) < selectivity.DefaultRelSelThreshold the path
// decomposition is chosen, otherwise the single-edge decomposition. It
// returns the chosen leaves, the kind chosen, and ξ (0 when Ŝ(T1)=0).
func Auto(q *query.Graph, src selectivity.Source) (leaves [][]int, kind Kind, xi float64, err error) {
	single, err := SingleDecompose(q, src)
	if err != nil {
		return nil, Single, 0, err
	}
	path, fellBack, err := PathDecompose(q, src)
	if err != nil {
		return nil, Single, 0, err
	}
	if fellBack {
		return single, Single, 1, nil
	}
	xi, ok, err := selectivity.RelativeSelectivityOf(src, q, path, single)
	if err != nil {
		return nil, Single, 0, err
	}
	if ok && selectivity.PreferPathDecomposition(xi) {
		return path, Path, xi, nil
	}
	return single, Single, xi, nil
}

// Footprint returns the edge-type footprint of a decomposition: the
// sorted distinct set of edge types the SJ-Tree built from leaves can
// ever join on, plus whether the footprint is exact (see
// query.Graph.TypeFootprint; wildcard-typed edges make it inexact).
// Because every valid decomposition covers every query edge, the
// footprint of any decomposition of q equals the query's own — the
// property the sharded runtime relies on when it stores, per shard,
// only the edges routable to the shard's queries. An error is returned
// for any leaf set sjtree.Build refuses — an empty leaf, an edge index
// out of range or in two leaves, a query edge no leaf covers — so a
// decomposition with a footprint is one an engine accepts.
func Footprint(q *query.Graph, leaves [][]int) (types []string, exact bool, err error) {
	covered := make([]bool, len(q.Edges))
	for i, leaf := range leaves {
		if len(leaf) == 0 {
			return nil, false, fmt.Errorf("decompose: leaf %d is empty", i)
		}
		for _, ei := range leaf {
			if ei < 0 || ei >= len(q.Edges) {
				return nil, false, fmt.Errorf("decompose: leaf edge index %d out of range", ei)
			}
			if covered[ei] {
				return nil, false, fmt.Errorf("decompose: query edge %d appears in two leaves", ei)
			}
			covered[ei] = true
		}
	}
	for ei, ok := range covered {
		if !ok {
			return nil, false, fmt.Errorf("decompose: query edge %d not covered by any leaf", ei)
		}
	}
	types, exact = q.TypeFootprint()
	return types, exact, nil
}

// Decompose dispatches on kind.
func Decompose(q *query.Graph, src selectivity.Source, kind Kind) ([][]int, error) {
	switch kind {
	case Single:
		return SingleDecompose(q, src)
	case Path:
		leaves, _, err := PathDecompose(q, src)
		return leaves, err
	default:
		return nil, fmt.Errorf("decompose: unknown kind %d", int(kind))
	}
}

// Format renders a decomposition as the ASCII SJ-Tree file written
// between the paper's query-decomposition and query-processing steps:
//
//	query {
//	v v0 ip
//	e v0 v1 TCP
//	}
//	window 1000
//	leaf 0 1
//	leaf 2
func Format(q *query.Graph, leaves [][]int, window int64) string {
	var b strings.Builder
	b.WriteString("query {\n")
	b.WriteString(q.String())
	b.WriteString("}\n")
	fmt.Fprintf(&b, "window %d\n", window)
	for _, leaf := range leaves {
		b.WriteString("leaf")
		for _, ei := range leaf {
			fmt.Fprintf(&b, " %d", ei)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ParseFile parses the Format representation back into its parts.
func ParseFile(text string) (q *query.Graph, leaves [][]int, window int64, err error) {
	lines := strings.Split(text, "\n")
	var queryLines []string
	inQuery := false
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case line == "query {":
			inQuery = true
		case line == "}":
			inQuery = false
		case inQuery:
			queryLines = append(queryLines, line)
		case strings.HasPrefix(line, "window "):
			window, err = strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, "window ")), 10, 64)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("decompose: line %d: bad window: %v", ln+1, err)
			}
		case strings.HasPrefix(line, "leaf"):
			var leaf []int
			for _, f := range strings.Fields(line)[1:] {
				ei, err := strconv.Atoi(f)
				if err != nil {
					return nil, nil, 0, fmt.Errorf("decompose: line %d: bad leaf index %q", ln+1, f)
				}
				leaf = append(leaf, ei)
			}
			if len(leaf) == 0 {
				return nil, nil, 0, fmt.Errorf("decompose: line %d: empty leaf", ln+1)
			}
			leaves = append(leaves, leaf)
		default:
			return nil, nil, 0, fmt.Errorf("decompose: line %d: unrecognized record %q", ln+1, line)
		}
	}
	if len(queryLines) == 0 {
		return nil, nil, 0, fmt.Errorf("decompose: missing query block")
	}
	q, err = query.Parse(strings.Join(queryLines, "\n"))
	if err != nil {
		return nil, nil, 0, err
	}
	return q, leaves, window, nil
}
