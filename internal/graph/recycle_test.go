package graph

import (
	"fmt"
	"testing"
)

// TestVertexIDRecycling: a sweep frees the slot of every vertex without
// an edge — expired, removed by hand, or never connected — and the next
// EnsureVertex takes it; a vertex with a live edge keeps its ID.
func TestVertexIDRecycling(t *testing.T) {
	g := New()
	tp := TypeID(g.Types().Intern("t"))
	a, b, c := g.EnsureVertex("a", "ip"), g.EnsureVertex("b", "ip"), g.EnsureVertex("c", "ip")
	lone := g.EnsureVertex("lone", "ip") // never gets an edge
	g.AddEdge(a, b, tp, 1)
	bc := g.AddEdge(b, c, tp, 5)
	if g.ExpireBefore(0) != 0 || g.LiveVertices() != 3 || g.VerticesReclaimed() != 1 {
		t.Fatalf("first sweep: live %d reclaimed %d, want only the unconnected vertex gone", g.LiveVertices(), g.VerticesReclaimed())
	}
	if g.VertexByName("lone") != NoVertex {
		t.Fatal("a reclaimed name still resolves")
	}

	g.ExpireBefore(3) // a->b expires: a is isolated, b keeps b->c
	if g.VertexByName("a") != NoVertex || g.VertexByName("b") != b || g.VertexByName("c") != c {
		t.Fatalf("after expiring a->b: a=%d b=%d c=%d", g.VertexByName("a"), g.VertexByName("b"), g.VertexByName("c"))
	}
	if g.NumVertices() != 4 || g.LiveVertices() != 2 {
		t.Fatalf("slots %d live %d, want 4 and 2", g.NumVertices(), g.LiveVertices())
	}
	// Last freed, first reused; the ID space does not grow.
	if d := g.EnsureVertex("d", "ip"); d != a {
		t.Fatalf("new vertex got id %d, want a's recycled slot %d", d, a)
	}
	if e := g.EnsureVertex("e", "ip"); e != lone {
		t.Fatalf("new vertex got id %d, want the other free slot %d", e, lone)
	}
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices grew to %d with free slots available", g.NumVertices())
	}

	// RemoveEdge isolates but does not reclaim: IDs move only at a sweep.
	g.RemoveEdge(bc)
	if g.VertexByName("b") != b || g.Degree(b) != 0 {
		t.Fatal("RemoveEdge must leave the isolated vertex named until the next sweep")
	}
	g.AddEdge(b, g.EnsureVertex("d", "ip"), tp, 9) // b reconnects before the sweep
	g.ExpireBefore(0)
	if g.VertexByName("b") != b || g.VertexByName("c") != NoVertex || g.VertexByName("e") != NoVertex {
		t.Fatal("sweep after RemoveEdge: want b kept (reconnected), c and e reclaimed")
	}
	seen := 0
	g.EachVertex(func(v VertexID) bool {
		seen++
		if g.VertexByName(g.VertexName(v)) != v {
			t.Errorf("EachVertex visited slot %d, which its name does not resolve to", v)
		}
		return true
	})
	if seen != g.LiveVertices() || seen != 2 {
		t.Fatalf("EachVertex visited %d vertices, LiveVertices %d, want 2", seen, g.LiveVertices())
	}
	if got, want := g.String(), "graph{V=2 E=1 types=1 labels=1}"; got != want {
		t.Fatalf("String() = %s, want %s", got, want)
	}
}

// TestAddEdgeOnReclaimedVertexPanics: holding a VertexID across a sweep
// without a live edge is a caller bug, reported loudly instead of
// corrupting the free list.
func TestAddEdgeOnReclaimedVertexPanics(t *testing.T) {
	g := New()
	a, b := g.EnsureVertex("a", "ip"), g.EnsureVertex("b", "ip")
	g.ExpireBefore(0)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge on reclaimed vertices did not panic")
		}
	}()
	g.AddEdge(a, b, 0, 1)
}

// TestLabelFollowsReentry pins the label rule: the existing label wins
// while the vertex has a live edge; a name that re-enters after a sweep
// found it isolated takes the label of its new first edge.
func TestLabelFollowsReentry(t *testing.T) {
	g := New()
	label := func(name string) string {
		return g.Labels().Name(uint32(g.VertexLabel(g.VertexByName(name))))
	}
	g.AddEdgeNamed("a", "client", "b", "server", "t", 1)
	g.AddEdgeNamed("a", "server", "c", "server", "t", 2)
	if got := label("a"); got != "client" {
		t.Fatalf("label of a live vertex changed to %q", got)
	}
	g.ExpireBefore(2) // a keeps a->c
	g.AddEdgeNamed("a", "server", "d", "server", "t", 3)
	if got := label("a"); got != "client" {
		t.Fatalf("a still has a live edge, yet its label became %q", got)
	}
	g.ExpireBefore(10)
	g.AddEdgeNamed("a", "server", "b", "server", "t", 11)
	if got := label("a"); got != "server" {
		t.Fatalf("a re-entered after fully expiring with label %q, want that of its new first edge", got)
	}
}

// TestVertexTableBounded streams 200k distinct names through a window
// of about 2k edges: the ID space must track the window, not the
// stream, and the name index must hold the live vertices only, in a
// table (grow-only, load at most one half) under four slots per vertex
// of the peak.
func TestVertexTableBounded(t *testing.T) {
	const (
		names  = 200_000
		window = 2000
		every  = 256
	)
	g := New()
	peakLive := 0
	for i := 0; i < names/2; i++ {
		ts := int64(i)
		g.AddEdgeNamed(fmt.Sprintf("s%d", i), "ip", fmt.Sprintf("d%d", i), "ip", "t", ts)
		if i%every == 0 {
			g.ExpireBefore(ts - window + 1)
		}
		peakLive = max(peakLive, g.LiveVertices())
	}
	if g.NumEdges() > window+every {
		t.Fatalf("%d live edges for a %d-edge window", g.NumEdges(), window)
	}
	if g.NumVertices() > 2*peakLive || peakLive > 2*(window+every) {
		t.Fatalf("%d vertex slots, peak live %d, for a window of %d edges", g.NumVertices(), peakLive, window)
	}
	if indexed := g.indexedNames(); indexed != g.LiveVertices() {
		t.Fatalf("name index holds %d names, %d vertices are live", indexed, g.LiveVertices())
	}
	if len(g.names) > 4*(peakLive+1) {
		t.Fatalf("name index has %d slots for a peak of %d live vertices", len(g.names), peakLive)
	}
	if got := g.VerticesReclaimed(); got < names-int64(g.NumVertices()) {
		t.Fatalf("reclaimed %d vertices of %d named with %d slots", got, names, g.NumVertices())
	}
}

// TestEnsureVertexReuseAllocFree is the allocation gate of the steady
// state: a new name taking a recycled slot, gaining an edge on the
// slot's kept adjacency capacity and expiring again allocates nothing.
func TestEnsureVertexReuseAllocFree(t *testing.T) {
	g := New()
	tp := TypeID(g.Types().Intern("t"))
	names := make([]string, 4096)
	for i := range names {
		names[i] = fmt.Sprintf("host%d", i)
	}
	i, ts := 0, int64(0)
	step := func() {
		ts++
		s := g.EnsureVertex(names[i%len(names)], "ip")
		d := g.EnsureVertex(names[(i+1)%len(names)], "ip")
		i += 2
		g.AddEdge(s, d, tp, ts)
		g.ExpireBefore(ts - 16)
	}
	for k := 0; k < 4*len(names); k++ { // warm every list and the name index
		step()
	}
	slots := g.NumVertices()
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Fatalf("steady-state EnsureVertex/AddEdge/ExpireBefore on recycled slots: %v allocs/op, want 0", allocs)
	}
	if g.NumVertices() != slots {
		t.Fatalf("vertex table grew from %d to %d slots in steady state", slots, g.NumVertices())
	}
}
