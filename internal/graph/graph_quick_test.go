package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickMutationInvariants drives random add/remove/expire sequences
// from a seed and verifies the structural invariants hold throughout:
// NumEdges equals the number of live edges, every live edge appears in
// exactly one out-slot and one in-slot, and degree sums match. Vertices
// are named afresh for every edge: ExpireBefore recycles the slot of a
// vertex it finds isolated, so no VertexID is carried across one.
func TestQuickMutationInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		const nv = 8
		tp := TypeID(g.Types().Intern("t"))
		var live []EdgeID
		ts := int64(0)
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 6 || len(live) == 0:
				si, di := rng.Intn(nv), rng.Intn(nv)
				if si == di {
					continue
				}
				ts++
				s := g.EnsureVertex(string(rune('a'+si)), "ip")
				d := g.EnsureVertex(string(rune('a'+di)), "ip")
				live = append(live, g.AddEdge(s, d, tp, ts))
			case op < 9:
				i := rng.Intn(len(live))
				g.RemoveEdge(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				cutoff := ts - int64(rng.Intn(20))
				g.ExpireBefore(cutoff)
				var kept []EdgeID
				for _, id := range live {
					if _, ok := g.Edge(id); ok {
						kept = append(kept, id)
					}
				}
				live = kept
			}
		}
		if g.NumEdges() != len(live) {
			return false
		}
		ok := true
		g.EachEdge(func(e Edge) bool {
			found := 0
			g.EachOut(e.Src, func(h Half) bool {
				if h.ID == e.ID {
					found++
				}
				return true
			})
			if found != 1 {
				ok = false
				return false
			}
			return true
		})
		totalOut, named := 0, 0
		g.EachVertex(func(v VertexID) bool {
			totalOut += g.OutDegree(v)
			named++
			if g.VertexByName(g.VertexName(v)) != v {
				ok = false
			}
			return true
		})
		return ok && totalOut == g.NumEdges() &&
			named == g.LiveVertices() && g.LiveVertices() <= g.NumVertices() && g.NumVertices() <= nv
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickExpireMonotone: after ExpireBefore(c), no live edge has a
// timestamp below the oldest edge that was at the FIFO front — i.e.
// repeated full expiry always empties the graph.
func TestQuickExpireMonotone(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		a := g.EnsureVertex("a", "ip")
		b := g.EnsureVertex("b", "ip")
		tp := TypeID(g.Types().Intern("t"))
		maxTS := int64(0)
		for i := 0; i < 100; i++ {
			ts := int64(rng.Intn(1000))
			if ts > maxTS {
				maxTS = ts
			}
			g.AddEdge(a, b, tp, ts)
		}
		g.ExpireBefore(maxTS + 1)
		return g.NumEdges() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
