package sjtree

import (
	"fmt"
	"slices"
	"testing"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
)

// TestResultsLifetimeAndCutBack pins the life of a Results' arrays. Every
// match written stays readable until Reset, however often the slabs grow
// under it. A burst's arrays are kept until a sweep has passed and the
// calls since the sweep before are small: the first Reset after a sweep
// judges only that interval, so the sweep that follows the burst keeps
// them and the next one cuts headers and both slabs back to twice the
// largest call since, no smaller than minSlots. A Results no sweep marks
// keeps its arrays.
func TestResultsLifetimeAndCutBack(t *testing.T) {
	const nv, ne = 4, 3
	var r Results
	call := func(n int) {
		r.Reset()
		for i := 0; i < n; i++ {
			m := iso.Match{VertexOf: make([]graph.VertexID, nv), EdgeOf: make([]graph.EdgeID, ne), MinTS: int64(i)}
			m.VertexOf[nv-1], m.EdgeOf[ne-1] = graph.VertexID(i), graph.EdgeID(i)
			r.Add(m)
		}
		for i, m := range r.Matches {
			if m.MinTS != int64(i) || m.VertexOf[nv-1] != graph.VertexID(i) || m.EdgeOf[ne-1] != graph.EdgeID(i) {
				t.Fatalf("match %d of %d reads %v after the slabs grew", i, n, m)
			}
		}
	}

	call(10000)
	burst := cap(r.Matches)
	r.Swept()
	call(20)
	if cap(r.Matches) != burst {
		t.Fatalf("the sweep right after the burst cut the headers from %d to %d", burst, cap(r.Matches))
	}
	call(30)
	r.Swept()
	call(5)
	if cap(r.Matches) != minSlots || cap(r.verts) != minSlots*nv || cap(r.edges) != minSlots*ne {
		t.Fatalf("after a quiet interval: capacities %d, %d, %d, want %d, %d, %d",
			cap(r.Matches), cap(r.verts), cap(r.edges), minSlots, minSlots*nv, minSlots*ne)
	}

	call(1000)
	r.Swept()
	call(100)
	call(100)
	r.Swept()
	call(0)
	if cap(r.Matches) != 200 || cap(r.verts) != 200*nv || cap(r.edges) != 200*ne {
		t.Fatalf("after calls of 100: capacities %d, %d, %d, want twice that", cap(r.Matches), cap(r.verts), cap(r.edges))
	}

	call(10000)
	burst = cap(r.Matches)
	for i := 0; i < 10; i++ {
		call(1)
	}
	if cap(r.Matches) != burst {
		t.Fatalf("an unswept Results cut its headers from %d to %d", burst, cap(r.Matches))
	}
}

// TestDifferentialInsertAdapter pins Insert as an adapter over
// InsertInto. Two trees run each differential script in lockstep — every
// decomposition, a one-leaf tree among them, dedup on and off, every
// timestamp shape, with and without forced hash collisions and a work
// budget that sheds — one through Insert with an emit callback, the other
// through InsertInto. They must emit equal multisets on every insert and
// agree on every Stats counter after every step. The matches Insert
// emits are kept across the inserts and sweeps of a batch, as the bench
// oracle keeps a batch's, and must read unchanged until they are
// Released.
func TestDifferentialInsertAdapter(t *testing.T) {
	const window = 200
	var emitted, shed int64
	for _, leaves := range [][][]int{{{0}, {1}, {2}}, {{0, 1}, {2}}, {{0, 1, 2}}} {
		for _, dedup := range []bool{false, true} {
			for _, collide := range []bool{false, true} {
				for _, budget := range []int64{0, 3} {
					for _, shape := range append([]tsShape{shapeRandom}, clockedShapes...) {
						c := scriptConfig{seed: 1, leaves: leaves, window: window, span: window, shape: shape, dedup: dedup, collide: collide}
						st := runAdapterScript(t, c, budget)
						emitted += st.Emitted
						shed += st.Shed
					}
				}
			}
		}
	}
	if emitted == 0 || shed == 0 {
		t.Fatalf("%d matches emitted, %d shed: the differential is vacuous", emitted, shed)
	}
}

// runAdapterScript is one run of TestDifferentialInsertAdapter: c's
// script with a fresh WorkBudget of budget per insert (0: none). It
// returns the trees' shared Stats.
func runAdapterScript(t *testing.T, c scriptConfig, budget int64) Stats {
	t.Helper()
	const batch = 8 // steps an emitted match is kept for
	q := query.NewPath(query.Wildcard, "a", "b", "c")
	var trees [2]*Tree
	for i := range trees {
		tr, err := Build(q, c.leaves, c.window)
		if err != nil {
			t.Fatal(err)
		}
		tr.Dedup, tr.collide = c.dedup, c.collide
		trees[i] = tr
	}
	viaInsert, viaInto := trees[0], trees[1]
	where := func(step int) string { return fmt.Sprintf("%v budget %d step %d", c, budget, step) }

	var out Results
	var held []iso.Match
	var heldStr, got, want []string
	emit := func(m iso.Match) {
		held = append(held, m)
		heldStr = append(heldStr, matchString(m))
		got = append(got, matchString(m))
	}
	for step, op := range genScript(c, q) {
		if op.sweep {
			if a, b := viaInsert.ExpireBefore(op.cutoff), viaInto.ExpireBefore(op.cutoff); a != b {
				t.Fatalf("%s: ExpireBefore(%d) evicted %d through Insert, %d through InsertInto", where(step), op.cutoff, a, b)
			}
			out.Swept()
		} else {
			if budget > 0 {
				viaInsert.Budget = &WorkBudget{Remaining: budget}
				viaInto.Budget = &WorkBudget{Remaining: budget}
			}
			got, want = got[:0], want[:0]
			n1 := viaInsert.Insert(op.leaf, op.m.Clone(), emit, nil)
			out.Reset()
			n2 := viaInto.InsertInto(op.leaf, op.m.Clone(), &out, nil)
			for _, m := range out.Matches {
				want = append(want, matchString(m))
			}
			slices.Sort(got)
			slices.Sort(want)
			if n1 != n2 || n1 != len(got) || !slices.Equal(got, want) {
				t.Fatalf("%s: Insert completed %d and emitted %v, InsertInto completed %d into %v", where(step), n1, got, n2, want)
			}
		}
		if a, b := viaInsert.Stats(), viaInto.Stats(); a != b {
			t.Fatalf("%s: Stats through Insert %+v, through InsertInto %+v", where(step), a, b)
		}
		for i, m := range held {
			if s := matchString(m); s != heldStr[i] {
				t.Fatalf("%s: a match Insert emitted earlier in the batch reads %s, was %s", where(step), s, heldStr[i])
			}
		}
		if step%batch == batch-1 {
			for _, m := range held {
				viaInsert.Release(m)
			}
			held, heldStr = held[:0], heldStr[:0]
		}
	}
	return viaInsert.Stats()
}
