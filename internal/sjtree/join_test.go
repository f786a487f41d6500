package sjtree

import (
	"fmt"
	"math/rand"
	"testing"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
)

// randomQuery draws a connected query of 3-5 vertices and at most 5
// edges: a random spanning tree in random directions plus up to two
// extra edges, which may close a cycle or double an existing edge.
func randomQuery(rng *rand.Rand) *query.Graph {
	q := &query.Graph{}
	nv := 3 + rng.Intn(3)
	for v := 0; v < nv; v++ {
		q.AddVertex(fmt.Sprintf("v%d", v), query.Wildcard)
		if v == 0 {
			continue
		}
		if u := rng.Intn(v); rng.Intn(2) == 0 {
			q.AddEdge(u, v, "t")
		} else {
			q.AddEdge(v, u, "t")
		}
	}
	for extra := rng.Intn(3); extra > 0 && len(q.Edges) < 5; extra-- {
		u := rng.Intn(nv)
		v := (u + 1 + rng.Intn(nv-1)) % nv
		q.AddEdge(u, v, "t")
	}
	return q
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	var out [][]int
	var rec func(prefix []int, used uint)
	rec = func(prefix []int, used uint) {
		if len(prefix) == n {
			out = append(out, append([]int(nil), prefix...))
			return
		}
		for i := 0; i < n; i++ {
			if used&(1<<uint(i)) == 0 {
				rec(append(prefix, i), used|1<<uint(i))
			}
		}
	}
	rec(nil, 0)
	return out
}

// randomLeafMatch binds one query edge the way a leaf search would —
// distinct endpoints, one data edge, one timestamp — from domains small
// enough that independently drawn matches agree on a cut, repeat a data
// vertex elsewhere, reuse a data edge, or fall outside the window, each
// a fair share of the time.
func randomLeafMatch(rng *rand.Rand, q *query.Graph, qe int) iso.Match {
	m := iso.NewMatch(q)
	s := graph.VertexID(rng.Intn(5))
	d := graph.VertexID((int(s) + 1 + rng.Intn(4)) % 5)
	m.VertexOf[q.Edges[qe].Src], m.VertexOf[q.Edges[qe].Dst] = s, d
	m.EdgeOf[qe] = graph.EdgeID(rng.Intn(40))
	m.MinTS = int64(rng.Intn(140))
	m.MaxTS = m.MinTS
	return m
}

// TestCompiledJoinMatchesReference pins the join plans compiled at Build
// against the generic join they replaced (refJoin): random queries, every
// order of their 1-edge leaves, random leaf matches. Each join the
// reference cascade attempts is repeated on Tree.joinable and union —
// same verdict, and on success the same bindings slot for slot,
// intermediate nodes included — and the hashed tree driven in lockstep
// must emit the same complete matches in the same order with the same
// JoinsAttempted/JoinsSucceeded. Under the collide hook every probe also
// meets the matches of other cuts, which update must turn away before
// joinable sees them. The run has to hit every way a join ends that valid
// inputs allow.
func TestCompiledJoinMatchesReference(t *testing.T) {
	const window = 100
	var reasons [numJoinOutcomes]int
	otherCut := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := randomQuery(rng)
		for _, order := range permutations(len(q.Edges)) {
			leaves := make([][]int, len(order))
			for i, qe := range order {
				leaves[i] = []int{qe}
			}
			for _, collide := range []bool{false, true} {
				tr, err := Build(q, leaves, window)
				if err != nil {
					t.Fatal(err)
				}
				tr.collide = collide
				ref, err := newRefTree(q, leaves, window, false)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("seed %d query %v order %v collide=%v", seed, q.Edges, order, collide)
				ref.onJoin = func(node, sibling *Node, a, b, want iso.Match, why joinOutcome) {
					lo, hi, ok := ref.t.joinable(node, sibling, a, b)
					if ok != (why == joinOK) {
						t.Fatalf("%s: node %d: joinable(%s, %s) = %v, reference outcome %d",
							where, node.ID, matchString(a), matchString(b), ok, why)
					}
					if !ok {
						return
					}
					if got := union(iso.NewMatch(q), sibling, a, b, lo, hi); matchString(got) != matchString(want) {
						t.Fatalf("%s: node %d: join = %s, reference %s", where, node.ID, matchString(got), matchString(want))
					}
				}
				var got, want []string
				for step := 0; step < 120; step++ {
					leaf := rng.Intn(len(leaves))
					m := randomLeafMatch(rng, q, leaves[leaf][0])
					if collide {
						// What the forced collision puts in the probed
						// bucket beyond the matches of m's own cut.
						sib := tr.Nodes[tr.Nodes[tr.Leaves[leaf]].Sibling]
						k := refKey(tr.Nodes[sib.Parent].Cut, m)
						otherCut += tr.TableSize(sib.ID) - len(ref.tables[sib.ID][k])
					}
					got, want = got[:0], want[:0]
					tr.Insert(leaf, m.Clone(), func(cm iso.Match) { got = append(got, matchString(cm)) }, nil)
					ref.insert(leaf, m, func(cm iso.Match) { want = append(want, matchString(cm)) })
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s step %d: emitted %v, reference %v", where, step, got, want)
					}
					st := tr.Stats()
					if st.JoinsAttempted != ref.attempted || st.JoinsSucceeded != ref.succeeded {
						t.Fatalf("%s step %d: joins %d/%d, reference %d/%d",
							where, step, st.JoinsSucceeded, st.JoinsAttempted, ref.succeeded, ref.attempted)
					}
				}
				for why, n := range ref.reasons {
					reasons[why] += n
				}
			}
		}
	}
	// A string-keyed probe never meets another cut, and leaves are
	// edge-disjoint by construction: those two outcomes cannot occur.
	for _, why := range []joinOutcome{joinOK, rejectWindow, rejectInjective, rejectDupEdge} {
		if reasons[why] == 0 {
			t.Errorf("no join ended with outcome %d: the generator no longer covers it", why)
		}
	}
	if reasons[rejectCut] != 0 || reasons[rejectSharedEdge] != 0 {
		t.Errorf("reference saw %d cut and %d shared-edge rejects on valid inputs", reasons[rejectCut], reasons[rejectSharedEdge])
	}
	if otherCut == 0 {
		t.Error("the collide runs never probed a bucket holding another cut")
	}
	t.Logf("outcomes ok/window/cut/injective/shared/dup = %v, other-cut bucket entries met = %d", reasons, otherCut)
}
