package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestAdjacencyBlockRecyclingAgainstMap drives random add, remove and
// expire churn through graphs whose released adjacency blocks are
// scribbled over, and after every operation compares each vertex's
// EachOut and EachIn with a map of the live edges. Names come back
// after their vertex is reclaimed, hubs grow past the largest class and
// are reclaimed in full sweeps, and half the graphs start from Reserve
// with degrees that are not powers of two. A block handed to two lists,
// or released while a list still used it, shows as a lost, foreign or
// scribbled record.
func TestAdjacencyBlockRecyclingAgainstMap(t *testing.T) {
	released, hubReleased := 0, 0
	prev := ReleaseHook
	ReleaseHook = func(b []adjRec) {
		released++
		if cap(b) == adjMaxList {
			hubReleased++
		}
		Scribble(b)
	}
	t.Cleanup(func() { ReleaseHook = prev })

	const names, hubs, window, steps = 48, 2, 500, 1200
	types := []string{"t0", "t1", "t2"}
	maxDegree, reclaimed := 0, int64(0)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		if seed%2 == 0 {
			out, in := make([]int32, names), make([]int32, names)
			for i := range out {
				out[i], in[i] = int32(rng.Intn(7)), int32(rng.Intn(200))
			}
			g.Reserve(out, in)
			for i := 0; i < names; i++ {
				g.EnsureVertex(fmt.Sprint("h", i), "l")
			}
		}
		type modelEdge struct {
			src, dst, typ string
			ts            int64
		}
		live := map[EdgeID]modelEdge{}
		name := func(v VertexID) string {
			if int(v) >= g.NumVertices() {
				return fmt.Sprintf("<vertex %d>", v)
			}
			return g.VertexName(v)
		}
		type rec struct {
			peer, typ string
			id        EdgeID
			ts        int64
		}
		check := func(op string) {
			t.Helper()
			want, got := map[string][]rec{}, map[string][]rec{}
			for id, e := range live {
				want[e.src+" out"] = append(want[e.src+" out"], rec{e.dst, e.typ, id, e.ts})
				want[e.dst+" in"] = append(want[e.dst+" in"], rec{e.src, e.typ, id, e.ts})
			}
			g.EachVertex(func(v VertexID) bool {
				key := g.VertexName(v)
				half := func(dir string) func(Half) bool {
					return func(h Half) bool {
						got[key+dir] = append(got[key+dir], rec{name(h.Peer), g.Types().Name(uint32(h.Type)), h.ID, h.TS})
						return true
					}
				}
				g.EachOut(v, half(" out"))
				g.EachIn(v, half(" in"))
				maxDegree = max(maxDegree, g.OutDegree(v), g.InDegree(v))
				return true
			})
			for _, m := range []map[string][]rec{want, got} {
				for _, l := range m {
					slices.SortFunc(l, func(a, b rec) int { return cmp.Compare(a.id, b.id) })
				}
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d, after %s: adjacency differs from the model\nwant %v\ngot  %v", seed, op, want, got)
			}
		}

		now := int64(0)
		expire := func(cutoff int64) {
			wantRemoved := 0
			for id, e := range live {
				if e.ts < cutoff {
					delete(live, id)
					wantRemoved++
				}
			}
			if got := g.ExpireBefore(cutoff); got != wantRemoved {
				t.Fatalf("seed %d: ExpireBefore(%d) removed %d edges, want %d", seed, cutoff, got, wantRemoved)
			}
		}
		pick := func() string {
			if rng.Intn(3) != 0 {
				return fmt.Sprint("h", rng.Intn(hubs))
			}
			return fmt.Sprint("h", rng.Intn(names))
		}
		for step := 1; step <= steps; step++ {
			var op string
			switch r := rng.Intn(100); {
			case step%600 == 0: // empty the graph: hubs are reclaimed too
				expire(now + 1)
				op = "ExpireBefore (all)"
			case r < 75:
				src, dst, typ := pick(), pick(), types[rng.Intn(len(types))]
				now++
				id := g.AddEdgeNamed(src, "l", dst, "l", typ, now)
				if _, dup := live[id]; dup {
					t.Fatalf("seed %d: AddEdge returned the live edge %d", seed, id)
				}
				live[id] = modelEdge{src, dst, typ, now}
				op = fmt.Sprintf("AddEdge %s->%s", src, dst)
			case r < 85:
				id := EdgeID(rng.Intn(g.NumEdgeSlots() + 1))
				g.RemoveEdge(id)
				delete(live, id)
				op = fmt.Sprintf("RemoveEdge %d", id)
			default:
				expire(now - window)
				op = "ExpireBefore (window)"
			}
			check(op)
		}
		reclaimed += g.VerticesReclaimed()
	}
	if maxDegree <= adjMaxList || hubReleased == 0 || released == 0 || reclaimed == 0 {
		t.Fatalf("churn not exercised: max degree %d, %d blocks released (%d of the largest class), %d vertices reclaimed",
			maxDegree, released, hubReleased, reclaimed)
	}
	t.Logf("max degree %d, %d blocks released (%d of the largest class), %d vertices reclaimed", maxDegree, released, hubReleased, reclaimed)
}

// TestColdGraphAllocBound: a fresh graph fed n edges over 2n fresh
// names cuts its 2n one-record lists from shared chunks. Growing each
// list from nil would cost at least one allocation per list, 2n in all;
// what remains is the chunks and the amortised growth of the graph's
// tables.
func TestColdGraphAllocBound(t *testing.T) {
	const n = 4096
	names := make([]string, 2*n)
	for i := range names {
		names[i] = fmt.Sprint("host", i)
	}
	allocs := testing.AllocsPerRun(5, func() {
		g := New()
		tp := TypeID(g.Types().Intern("t"))
		for i := 0; i < n; i++ {
			g.AddEdge(g.EnsureVertex(names[2*i], "ip"), g.EnsureVertex(names[2*i+1], "ip"), tp, int64(i))
		}
	})
	if allocs > n/16 {
		t.Fatalf("building a graph of %d edges over %d fresh names: %v allocs, want at most %d", n, 2*n, allocs, n/16)
	}
	t.Logf("%d edges over %d fresh names: %v allocs", n, 2*n, allocs)
}
