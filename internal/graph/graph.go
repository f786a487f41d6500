// Package graph implements the dynamic multi-relational graph substrate
// used by the continuous pattern detection engine. Graphs are directed,
// vertex- and edge-labeled, permit parallel edges, and carry a timestamp
// on every edge so that the graph can be maintained as a sliding window
// in time (Section 2 of Choudhury et al., EDBT 2015).
//
// The implementation interns all labels and edge types to dense integer
// identifiers, stores edges in an arena with a free-list, and keeps
// per-vertex in/out adjacency with back-indices so that removing an edge
// (window eviction) is O(1). Vertex names resolve through an index of
// the graph's own (names.go), probed once per endpoint of an arriving
// edge; nothing else on the ingest path looks a name up — window
// statistics are computed from the graph when a registration asks
// (selectivity.FromGraph).
//
// # ID lifetimes
//
// Every table the per-edge path touches is sized by the window, not by
// the stream, so both kinds of ID are recycled:
//
//   - An EdgeID is an arena slot. RemoveEdge (hence ExpireBefore) frees
//     it and a later AddEdge reuses it; Edge reports whether the slot
//     is live. Edge.Seq is the identity that is never reused.
//   - A VertexID is a slot of the vertex table. It is stable from the
//     EnsureVertex that assigned it until the first ExpireBefore that
//     finds the vertex without an edge: that sweep forgets the name and
//     frees the slot, and a later EnsureVertex hands it to whatever name
//     arrives next. Nothing between two sweeps moves a VertexID.
//
// So an ID may be held across a sweep only by state the same sweep
// prunes: a holder that binds live edges (a partial match no older than
// the cutoff) keeps valid IDs, because a vertex with a live edge is
// never reclaimed; anything else — a per-vertex side table, queued work
// naming a vertex, a match that was handed to a caller — must be
// resolved or dropped before the next sweep, or re-derived from the
// name (VertexByName) after it. internal/core's sweep helper is the
// one place that sequences graph expiry, SJ-Tree expiry and the lazy
// stamps against that rule.
//
// The label rule follows: a vertex keeps the label of the edge that
// created it for as long as it has a live edge; a name that re-enters
// the graph after a sweep found it isolated is a new vertex and takes
// the label of its new first edge. A snapshot (internal/persist) saves
// referenced vertices only, so a restored graph obeys the same rule.
//
// # Adjacency memory
//
// The adjacency lists are blocks of the graph's own allocator (adj.go),
// so that a sliding window does not allocate once per new vertex.
// Lists of up to 128 records come in power-of-two size classes, cut
// from 256-record chunks or taken from a free list per class. A full
// list moves to the next class and frees its old block; a reclaimed
// vertex slot frees its lists but keeps a one-record list for the next
// name, which most often needs no more. Longer lists are made by the
// runtime and left to the collector. A freed block is soon another
// vertex's list, so a list read by EachOut or EachIn is valid only
// until the graph next changes.
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// VertexID identifies a vertex within a Graph. IDs are dense slot
// indices, recycled by ExpireBefore once the vertex has no edge left;
// holders of a VertexID across a sweep must bind a live edge of the
// vertex or revalidate by name (see "ID lifetimes" in the package
// comment).
type VertexID uint32

// EdgeID identifies an edge within a Graph. EdgeIDs are arena indices and
// are recycled after the edge is removed; holders of an EdgeID across
// mutations must revalidate with Edge.
type EdgeID uint32

// TypeID is an interned edge type.
type TypeID uint32

// LabelID is an interned vertex label.
type LabelID uint32

// NoVertex is returned by lookups that find no vertex.
const NoVertex = VertexID(math.MaxUint32)

// Edge is the exported view of a single directed edge.
type Edge struct {
	ID   EdgeID
	Src  VertexID
	Dst  VertexID
	Type TypeID
	TS   int64
	// Seq is the edge's arrival sequence number: AddEdge assigns 1, 2,
	// 3, ... in call order and never recycles a value (unlike EdgeID,
	// which reuses arena slots after eviction). Seq totally orders
	// arrivals, so "the graph as it was when edge e arrived" is exactly
	// the set of live edges with Seq <= e.Seq — the visibility bound the
	// batch ingestion path uses to reproduce serial search results.
	Seq uint64
}

// Half is one adjacency entry: the edge as seen from one endpoint.
type Half struct {
	Peer VertexID // the other endpoint
	Type TypeID
	ID   EdgeID
	TS   int64
}

type vertexRec struct {
	name  string
	label LabelID
	// hash is the name's index hash, kept so that reclaiming the vertex
	// finds its slot without reading the name again.
	hash uint32
	// queued marks a vertex on Graph.sweepVerts; free marks a reclaimed
	// slot waiting on Graph.freeVerts.
	queued, free bool
	out, in      []adjRec
}

type adjRec struct {
	peer  VertexID
	etype TypeID
	eid   EdgeID
	ts    int64
}

type edgeRec struct {
	src, dst VertexID
	etype    TypeID
	ts       int64
	seq      uint64
	outIdx   int32 // position within verts[src].out
	inIdx    int32 // position within verts[dst].in
	alive    bool
}

// Graph is a dynamic directed labeled multigraph. The zero value is not
// usable; call New.
type Graph struct {
	types  *Interner
	labels *Interner

	verts []vertexRec
	// names is the name -> VertexID index (names.go); collide is a test
	// hook that gives every name the same hash.
	names   []nameSlot
	collide bool
	// freeVerts holds the reclaimed slots EnsureVertex reuses (last
	// freed first). sweepVerts holds the vertices the next ExpireBefore
	// must look at: every one created, or left without an edge, since
	// the last sweep — so a sweep costs O(changed), never O(slots).
	freeVerts  []VertexID
	sweepVerts []VertexID
	reclaimed  int64

	edges     []edgeRec
	freeEdges []EdgeID
	liveEdges int

	// liveByType counts live edges per interned type; it makes
	// View.NumEdges and replica statistics O(types) instead of a scan.
	liveByType []int

	// fifo holds live edge IDs in arrival order for window eviction.
	fifo   []EdgeID
	fifoLo int

	lastTS  int64
	lastSeq uint64

	// adj allocates the vertices' adjacency lists (adj.go). It comes
	// last so that the tables above keep their cache lines.
	adj adjAlloc
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		types:  NewInterner(),
		labels: NewInterner(),
		names:  make([]nameSlot, minNameSlots),
	}
}

// Types returns the edge-type interner. Callers may intern new types but
// must not otherwise mutate it.
func (g *Graph) Types() *Interner { return g.types }

// Labels returns the vertex-label interner.
func (g *Graph) Labels() *Interner { return g.labels }

// NumVertices reports the size of the VertexID space: every valid
// VertexID is below it. It counts slots — live vertices plus reclaimed
// ones waiting for reuse — and is what an array indexed by VertexID
// must be sized by. It is bounded by the peak of LiveVertices, not by
// the number of names the stream has ever carried.
func (g *Graph) NumVertices() int { return len(g.verts) }

// LiveVertices reports the number of named vertices: those with an
// edge, plus those created or isolated since the last ExpireBefore.
func (g *Graph) LiveVertices() int { return len(g.verts) - len(g.freeVerts) }

// VerticesReclaimed reports how many vertex slots ExpireBefore has
// freed over the graph's lifetime.
func (g *Graph) VerticesReclaimed() int64 { return g.reclaimed }

// NumEdges reports the number of live edges.
func (g *Graph) NumEdges() int { return g.liveEdges }

// NumEdgeSlots reports the size of the EdgeID space: every valid EdgeID
// is below it, and an array indexed by EdgeID is sized by it.
func (g *Graph) NumEdgeSlots() int { return len(g.edges) }

// LastTS reports the largest timestamp seen by AddEdge.
func (g *Graph) LastTS() int64 { return g.lastTS }

// LastSeq reports the arrival sequence number assigned to the most
// recent AddEdge call (0 before the first edge).
func (g *Graph) LastSeq() uint64 { return g.lastSeq }

// EnsureVertex returns the vertex named name, creating it with the given
// label if it does not exist. If the vertex exists with a different
// label the existing label wins: a vertex keeps its label until a sweep
// reclaims it (see "ID lifetimes" in the package comment). A new vertex
// takes a reclaimed slot when there is one, with the one-record
// adjacency lists the slot kept (see "Adjacency memory").
func (g *Graph) EnsureVertex(name, label string) VertexID {
	g.reserveName()
	h := g.hashName(name)
	v, slot := g.findName(name, h)
	if v != NoVertex {
		return v
	}
	lab := LabelID(g.labels.Intern(label))
	if n := len(g.freeVerts); n > 0 {
		v = g.freeVerts[n-1]
		g.freeVerts = g.freeVerts[:n-1]
		r := &g.verts[v]
		r.name, r.label, r.hash, r.free = name, lab, h, false
	} else {
		v = VertexID(len(g.verts))
		g.verts = append(g.verts, vertexRec{name: name, label: lab, hash: h})
	}
	g.names[slot] = nameSlot{hash: h, ref: uint32(v) + 1}
	// Until its first edge arrives the vertex is isolated; the next
	// sweep checks whether that edge ever came.
	g.queueSweep(v)
	return v
}

// Reserve presizes an empty graph for a restore of len(out) vertices,
// vertex i with out[i] outgoing and in[i] incoming edges (len(in) must
// equal len(out)). The vertex and edge slabs, the FIFO, the sweep queue
// and the name index are made at their final size, and every vertex's
// two adjacency lists are cut from one slab at its degrees. The
// vertices are made reclaimed slots, queued so that the next len(out)
// new names EnsureVertex sees take slots 0, 1, 2, ... in turn, each
// with its cut adjacency; an AddEdge past a reserved degree grows that
// list alone, as for any vertex. A cut piece the graph frees (grown out
// of, or released with its reclaimed slot) joins the free list of the
// largest size class it holds. Reserve does nothing on a graph that
// holds a vertex or an edge.
func (g *Graph) Reserve(out, in []int32) {
	if len(g.verts) > 0 || len(g.edges) > 0 {
		return
	}
	n, edges, adj := len(out), 0, 0
	for i := range out {
		edges += int(out[i])
		adj += int(out[i]) + int(in[i])
	}
	slab := make([]adjRec, adj)
	g.verts = make([]vertexRec, n)
	g.freeVerts = make([]VertexID, n)
	at := 0
	for i := range g.verts {
		o := at + int(out[i])
		d := o + int(in[i])
		r := &g.verts[i]
		r.out, r.in, r.free = slab[at:at:o], slab[o:o:d], true
		at = d
		g.freeVerts[n-1-i] = VertexID(i)
	}
	g.sweepVerts = make([]VertexID, 0, n)
	g.edges = make([]edgeRec, 0, edges)
	g.fifo = make([]EdgeID, 0, edges)
	if slots := 2 * (n + 1); slots > len(g.names) {
		g.names = make([]nameSlot, 1<<bits.Len(uint(slots-1)))
	}
}

// queueSweep puts v on the list the next ExpireBefore examines.
func (g *Graph) queueSweep(v VertexID) {
	if r := &g.verts[v]; !r.queued {
		r.queued = true
		g.sweepVerts = append(g.sweepVerts, v)
	}
}

// VertexByName returns the vertex with the given name, or NoVertex.
func (g *Graph) VertexByName(name string) VertexID {
	v, _ := g.findName(name, g.hashName(name))
	return v
}

// VertexName returns the external name of v.
func (g *Graph) VertexName(v VertexID) string { return g.verts[v].name }

// VertexLabel returns the interned label of v.
func (g *Graph) VertexLabel(v VertexID) LabelID { return g.verts[v].label }

// OutDegree reports the number of outgoing edges at v.
func (g *Graph) OutDegree(v VertexID) int { return len(g.verts[v].out) }

// InDegree reports the number of incoming edges at v.
func (g *Graph) InDegree(v VertexID) int { return len(g.verts[v].in) }

// Degree reports the total number of incident edges at v.
func (g *Graph) Degree(v VertexID) int { return len(g.verts[v].out) + len(g.verts[v].in) }

// AddEdge inserts a directed edge src -> dst with the given interned type
// and timestamp, returning its EdgeID. Timestamps are expected to be
// non-decreasing; out-of-order edges are accepted but may be evicted late
// (see ExpireBefore). A full adjacency list moves to a block of the next
// size class and frees its old one, so AddEdge allocates only when the
// graph's free list for that class is empty and its chunk is cut up, or
// when a list grows past 128 records. It panics when an endpoint is a
// reclaimed slot: the caller held a VertexID across a sweep without a
// live edge.
func (g *Graph) AddEdge(src, dst VertexID, etype TypeID, ts int64) EdgeID {
	if g.verts[src].free || g.verts[dst].free {
		panic("graph: AddEdge on a reclaimed vertex (VertexID held across ExpireBefore)")
	}
	var eid EdgeID
	if n := len(g.freeEdges); n > 0 {
		eid = g.freeEdges[n-1]
		g.freeEdges = g.freeEdges[:n-1]
	} else {
		eid = EdgeID(len(g.edges))
		g.edges = append(g.edges, edgeRec{})
	}
	sv := &g.verts[src]
	dv := &g.verts[dst]
	g.lastSeq++
	g.edges[eid] = edgeRec{
		src: src, dst: dst, etype: etype, ts: ts, seq: g.lastSeq,
		outIdx: int32(len(sv.out)), inIdx: int32(len(dv.in)), alive: true,
	}
	sv.out = g.adj.push(sv.out, adjRec{peer: dst, etype: etype, eid: eid, ts: ts})
	dv.in = g.adj.push(dv.in, adjRec{peer: src, etype: etype, eid: eid, ts: ts})
	g.fifo = append(g.fifo, eid)
	g.liveEdges++
	for int(etype) >= len(g.liveByType) {
		g.liveByType = append(g.liveByType, 0)
	}
	g.liveByType[etype]++
	if ts > g.lastTS {
		g.lastTS = ts
	}
	return eid
}

// AddEdgeNamed is a convenience wrapper that interns names, labels and
// the edge type before inserting.
func (g *Graph) AddEdgeNamed(src, srcLabel, dst, dstLabel, etype string, ts int64) EdgeID {
	s := g.EnsureVertex(src, srcLabel)
	d := g.EnsureVertex(dst, dstLabel)
	return g.AddEdge(s, d, TypeID(g.types.Intern(etype)), ts)
}

// Edge returns the edge with the given ID and whether it is live.
func (g *Graph) Edge(id EdgeID) (Edge, bool) {
	if int(id) >= len(g.edges) {
		return Edge{}, false
	}
	r := &g.edges[id]
	if !r.alive {
		return Edge{}, false
	}
	return Edge{ID: id, Src: r.src, Dst: r.dst, Type: r.etype, TS: r.ts, Seq: r.seq}, true
}

// RemoveEdge deletes the edge with the given ID. It is a no-op if the
// edge is already gone. Removal is O(1): the adjacency entries are
// swap-deleted and the displaced entries' back-indices patched.
func (g *Graph) RemoveEdge(id EdgeID) {
	if int(id) >= len(g.edges) || !g.edges[id].alive {
		return
	}
	r := &g.edges[id]
	sv, dv := &g.verts[r.src], &g.verts[r.dst]
	g.removeAdj(&sv.out, r.outIdx, true)
	g.removeAdj(&dv.in, r.inIdx, false)
	if len(sv.out)+len(sv.in) == 0 {
		g.queueSweep(r.src)
	}
	if len(dv.out)+len(dv.in) == 0 {
		g.queueSweep(r.dst)
	}
	r.alive = false
	g.freeEdges = append(g.freeEdges, id)
	g.liveEdges--
	g.liveByType[r.etype]--
}

// EdgesOfType reports the number of live edges with the given interned
// type.
func (g *Graph) EdgesOfType(t TypeID) int {
	if int(t) >= len(g.liveByType) {
		return 0
	}
	return g.liveByType[t]
}

func (g *Graph) removeAdj(list *[]adjRec, idx int32, isOut bool) {
	l := *list
	last := int32(len(l) - 1)
	if idx != last {
		moved := l[last]
		l[idx] = moved
		if isOut {
			g.edges[moved.eid].outIdx = idx
		} else {
			g.edges[moved.eid].inIdx = idx
		}
	}
	*list = l[:last]
}

// ExpireBefore removes edges with timestamp < cutoff and returns how many
// were removed. Eviction walks the arrival-order FIFO from the front and
// stops at the first live edge with ts >= cutoff, so an out-of-order old
// edge that arrived after a newer one is evicted on a later call — the
// usual slack of stream-window maintenance.
//
// It then reclaims every vertex that has no edge left — isolated by
// these removals or by an earlier RemoveEdge, or created and never
// connected: the name is forgotten and the slot goes to the next
// EnsureVertex. This is the only point at which a VertexID changes
// hands.
func (g *Graph) ExpireBefore(cutoff int64) int {
	removed := 0
	for g.fifoLo < len(g.fifo) {
		eid := g.fifo[g.fifoLo]
		r := &g.edges[eid]
		if !r.alive {
			g.fifoLo++
			continue
		}
		if r.ts >= cutoff {
			break
		}
		g.RemoveEdge(eid)
		g.fifoLo++
		removed++
	}
	// Compact the FIFO once the dead prefix dominates.
	if g.fifoLo > len(g.fifo)/2 && g.fifoLo > 1024 {
		g.fifo = append(g.fifo[:0], g.fifo[g.fifoLo:]...)
		g.fifoLo = 0
	}
	g.reclaimIsolated()
	return removed
}

// reclaimIsolated frees the slot of every queued vertex that has no
// edge and empties the queue.
func (g *Graph) reclaimIsolated() {
	for _, v := range g.sweepVerts {
		r := &g.verts[v]
		r.queued = false
		if len(r.out)+len(r.in) > 0 {
			continue
		}
		g.deleteName(v, r.hash)
		g.adj.reclaim(&r.out)
		g.adj.reclaim(&r.in)
		r.name, r.free = "", true
		g.freeVerts = append(g.freeVerts, v)
		g.reclaimed++
	}
	g.sweepVerts = g.sweepVerts[:0]
}

// NormalizeEvictionOrder rebuilds the eviction FIFO in (timestamp,
// arrival) order from the live arena. The replica-maintenance paths
// disturb the FIFO's invariants in two ways that would corrupt
// ExpireBefore's front-stopping walk: a backfill appends edges from
// the stream's past behind newer ones (shielding them from eviction
// past their serial expiry point), and a trim removes edges mid-FIFO,
// leaving stale entries whose arena slots may be recycled by newer
// edges — an aliased high timestamp early in the walk that blocks
// eviction of everything behind it. Rebuilding from the arena rather
// than the old FIFO discards stale entries wholesale and restores the
// eviction schedule a serial ingest of the same live edges would have
// produced. Either divergence would let old edges outlive their
// partial-match dedup state and resurface as duplicate matches.
func (g *Graph) NormalizeEvictionOrder() {
	live := make([]EdgeID, 0, g.liveEdges)
	for i := range g.edges {
		if g.edges[i].alive {
			live = append(live, EdgeID(i))
		}
	}
	sort.Slice(live, func(i, j int) bool {
		a, b := &g.edges[live[i]], &g.edges[live[j]]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		return a.seq < b.seq
	})
	g.fifo = live
	g.fifoLo = 0
}

// EachOut invokes fn for every outgoing edge at v. Returning false stops
// the iteration early. fn must not change the graph: a list that grows
// or shrinks under the walk frees or moves records the walk then reads.
func (g *Graph) EachOut(v VertexID, fn func(Half) bool) {
	for _, a := range g.verts[v].out {
		if !fn(Half{Peer: a.peer, Type: a.etype, ID: a.eid, TS: a.ts}) {
			return
		}
	}
}

// EachIn invokes fn for every incoming edge at v. Returning false stops
// the iteration early. fn must not change the graph (see EachOut).
func (g *Graph) EachIn(v VertexID, fn func(Half) bool) {
	for _, a := range g.verts[v].in {
		if !fn(Half{Peer: a.peer, Type: a.etype, ID: a.eid, TS: a.ts}) {
			return
		}
	}
}

// EachEdge invokes fn for every live edge in the graph (arena order).
// Returning false stops the iteration early.
func (g *Graph) EachEdge(fn func(Edge) bool) {
	for i := range g.edges {
		r := &g.edges[i]
		if !r.alive {
			continue
		}
		if !fn(Edge{ID: EdgeID(i), Src: r.src, Dst: r.dst, Type: r.etype, TS: r.ts, Seq: r.seq}) {
			return
		}
	}
}

// EachEdgeArrival invokes fn for every live edge in arrival order (the
// order AddEdge was called). Returning false stops the iteration early.
// Snapshot/restore uses this so that a rebuilt graph evicts edges in
// the same order as the original.
func (g *Graph) EachEdgeArrival(fn func(Edge) bool) {
	for i := g.fifoLo; i < len(g.fifo); i++ {
		eid := g.fifo[i]
		r := &g.edges[eid]
		if !r.alive {
			continue
		}
		if !fn(Edge{ID: eid, Src: r.src, Dst: r.dst, Type: r.etype, TS: r.ts, Seq: r.seq}) {
			return
		}
	}
}

// EachVertex invokes fn for every live vertex (reclaimed slots are
// skipped). Returning false stops early.
func (g *Graph) EachVertex(fn func(VertexID) bool) {
	for i := range g.verts {
		if g.verts[i].free {
			continue
		}
		if !fn(VertexID(i)) {
			return
		}
	}
}

// AvgDegree reports the mean total degree over vertices with at least one
// incident edge; it is the d̄ used by the paper's cost analysis.
func (g *Graph) AvgDegree() float64 {
	active, deg := 0, 0
	for i := range g.verts {
		d := len(g.verts[i].out) + len(g.verts[i].in)
		if d > 0 {
			active++
			deg += d
		}
	}
	if active == 0 {
		return 0
	}
	return float64(deg) / float64(active)
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{V=%d E=%d types=%d labels=%d}",
		g.LiveVertices(), g.liveEdges, g.types.Len(), g.labels.Len())
}
