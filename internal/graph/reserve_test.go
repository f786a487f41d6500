package graph

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// dump renders everything a caller can observe of g: the ID spaces and
// counters, every slot's name, label and adjacency in list order, every
// edge slot, the arrival order and the name index.
func dump(g *Graph) string {
	b := make([]byte, 0, 4096)
	num := func(vs ...int64) {
		for _, v := range vs {
			b = strconv.AppendInt(append(b, ' '), v, 10)
		}
	}
	num(int64(g.NumVertices()), int64(g.LiveVertices()), g.VerticesReclaimed(),
		int64(g.NumEdges()), int64(g.NumEdgeSlots()), g.LastTS(), int64(g.LastSeq()))
	half := func(h Half) bool {
		num(int64(h.Peer), int64(h.Type), int64(h.ID), h.TS)
		return true
	}
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		name := g.VertexName(v)
		b = append(append(b, "\nv "...), name...)
		num(int64(g.VertexLabel(v)), int64(g.VertexByName(name)))
		b = append(b, " out"...)
		g.EachOut(v, half)
		b = append(b, " in"...)
		g.EachIn(v, half)
	}
	for id := EdgeID(0); int(id) < g.NumEdgeSlots(); id++ {
		if e, ok := g.Edge(id); ok {
			b = append(b, "\ne"...)
			num(int64(id), int64(e.Src), int64(e.Dst), int64(e.Type), e.TS, int64(e.Seq))
		}
	}
	b = append(b, "\narrival"...)
	g.EachEdgeArrival(func(e Edge) bool { num(int64(e.ID)); return true })
	return string(b)
}

// TestReservedGraphChurnDifferential: a graph presized by Reserve and a
// graph grown from empty, fed the same operations, look the same after
// every one of them. The reserved graph is given half the true degrees
// of every third vertex, so AddEdge grows lists past their cut of the
// adjacency slab; the churn then swap-removes edges, expires the window
// (reclaiming vertices), and reuses the reclaimed slots for new names.
// A list cut too long would overwrite its neighbour's, and a reserved
// slot handed out of order would renumber vertices: both show as a
// difference.
func TestReservedGraphChurnDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, initial, window = 40, 200, 150
	types := []string{"t0", "t1", "t2"}
	type edge struct {
		src, dst int
		typ      string
		ts       int64
	}
	var load []edge
	out, in := make([]int32, n), make([]int32, n)
	for i := 0; i < initial; i++ {
		e := edge{rng.Intn(n), rng.Intn(n), types[rng.Intn(len(types))], int64(i)}
		load = append(load, e)
		out[e.src]++
		in[e.dst]++
	}
	for i := 0; i < n; i += 3 {
		out[i], in[i] = out[i]/2, in[i]/2
	}

	res, grown := New(), New()
	res.Reserve(out, in)
	both := func(f func(g *Graph)) {
		t.Helper()
		f(res)
		f(grown)
		if a, b := dump(res), dump(grown); a != b {
			t.Fatalf("reserved and grown graphs differ:\nreserved:\n%s\ngrown:\n%s", a, b)
		}
	}
	// The reserved graph has all n slots from the start, so the two
	// compare once every slot is named.
	for _, g := range []*Graph{res, grown} {
		for i := 0; i < n; i++ {
			if v := g.EnsureVertex(fmt.Sprint("h", i), fmt.Sprint("l", i%4)); v != VertexID(i) {
				t.Fatalf("vertex %d of the load got ID %d", i, v)
			}
		}
	}
	for _, e := range load {
		both(func(g *Graph) {
			g.AddEdge(VertexID(e.src), VertexID(e.dst), TypeID(g.Types().Intern(e.typ)), e.ts)
		})
	}

	now := int64(initial)
	for step := 0; step < 2000; step++ {
		switch r := rng.Intn(10); {
		case r < 6: // an edge between old and new names
			src, dst := fmt.Sprint("h", rng.Intn(2*n)), fmt.Sprint("h", rng.Intn(2*n))
			typ := types[rng.Intn(len(types))]
			now++
			both(func(g *Graph) { g.AddEdgeNamed(src, "l", dst, "l", typ, now) })
		case r < 9: // swap-remove a random edge, live or not
			id := EdgeID(rng.Intn(grown.NumEdgeSlots() + 1))
			both(func(g *Graph) { g.RemoveEdge(id) })
		default: // slide the window: expire and reclaim
			both(func(g *Graph) { g.ExpireBefore(now - window) })
		}
	}
	if grown.VerticesReclaimed() == 0 || grown.NumEdges() == 0 {
		t.Fatalf("churn reclaimed %d vertices and left %d edges: not exercised", grown.VerticesReclaimed(), grown.NumEdges())
	}
}
