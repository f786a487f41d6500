// Package sjtree implements the Subgraph Join Tree of Choudhury et al.
// (EDBT 2015, Section 3): a left-deep binary tree over a decomposition
// of the query graph. Leaves correspond to the small subgraphs searched
// on every edge arrival; each node stores the partial matches for its
// subgraph in a hash table keyed by the projection of the parent's
// cut sub-graph (the vertices shared between the parent's children,
// Property 4), so that sibling matches join by hash lookup
// (Algorithm 2).
//
// A stored match is a record in its node's slab (store.go), addressed by
// slot and owned by the tree alone: an insert copies the caller's match
// in and hands the caller's arrays back to the pool at once. What join
// probes, OnStored and EachStored see of a stored match is a view — an
// iso.Match whose slices point into the slab — valid until the tree is
// next mutated. Window expiry reads a per-node timing wheel over MinTS,
// so a sweep costs the expired matches, not the stored ones.
//
// A complete match is never stored and never drawn from the pool: a join
// that reaches the root writes the union of its two sides straight into
// the caller's Results (results.go), whose slabs own it until the
// caller's next Reset. InsertInto is that one path; Insert is an adapter
// over it for callers that want each complete match as arrays of their
// own. The pool holds only matches in flight below the root: leaf
// candidates, interior join outputs, and the clones Insert hands out.
package sjtree

import (
	"fmt"
	"math"
	"sort"

	"streamgraph/internal/iso"
	"streamgraph/internal/query"
)

// None marks an absent parent/child/sibling link.
const None = -1

// Node is one SJ-Tree node. Leaves carry the query subgraph searched on
// the stream; internal nodes carry the join of their children
// (Property 2) and the cut sub-graph used to key the match tables.
type Node struct {
	ID      int
	Parent  int
	Left    int
	Right   int
	Sibling int

	QEdges []int // query edge indices of VSG(n), sorted
	QVerts []int // query vertex indices covered, sorted
	Cut    []int // internal nodes: sorted query vertices shared by children

	// ownVerts is QVerts without the parent's cut: the vertices a match
	// of this node does not share with a sibling's (see Tree.joinable).
	ownVerts []int

	IsLeaf  bool
	LeafPos int // position in left-to-right leaf order; -1 for internal nodes

	// NextLeaf is the leaf position whose search a stored match at this
	// node enables under Lazy Search, or -1. For the leftmost leaf it is
	// 1; for the internal node joining leaves 0..i it is i+1.
	NextLeaf int

	// store holds the node's partial matches (see store.go).
	store
}

// Stats counts the work performed by a tree since construction.
type Stats struct {
	Inserted       int64 // matches added to some match table
	Deduped        int64 // duplicate insertions suppressed (lazy mode)
	JoinsAttempted int64
	JoinsSucceeded int64
	Emitted        int64 // complete matches reported
	Stored         int64 // currently live stored matches
	PeakStored     int64
	Evicted        int64
	Shed           int64 // inserts/probes dropped by the work budget
	ExpireScanned  int64 // stored matches examined by ExpireBefore; stays 0 on no-expiry passes
}

// Tree is an SJ-Tree bound to a query graph.
type Tree struct {
	Query  *query.Graph
	Nodes  []*Node
	Root   int
	Leaves []int // node IDs in left-to-right order

	// Window, when positive, is tW: joins producing a match with
	// τ(g) >= Window are rejected, and ExpireBefore evicts stored
	// matches that can no longer participate in an in-window match.
	Window int64

	// Dedup enables duplicate suppression on insert. Lazy Search's
	// retrospective neighborhood searches can rediscover a stored match;
	// non-lazy processing discovers each match exactly once and can skip
	// the check.
	Dedup bool

	// Budget, when non-nil, bounds the work (join attempts + stored
	// inserts) a cascade may perform before load-shedding: once
	// Budget.Remaining reaches zero, Insert stops probing and storing
	// for the current event. Streaming engines shed load under
	// combinatorial pressure (hub vertices of unlabeled queries);
	// Stats.Shed counts the dropped work.
	Budget *WorkBudget

	// pool recycles the backing arrays of inserted, discarded and
	// released matches into interior join outputs, Insert's clones and
	// (via Pool) the engine's candidate clones, keeping the steady-state
	// insert path allocation-free. Stored matches live in the nodes'
	// slabs and complete ones in a Results, not here.
	pool *iso.MatchPool

	// scratch is the Results Insert runs InsertInto against; it is empty
	// between calls.
	scratch Results

	// shift sizes the nodes' timing wheels (a bucket spans 1<<shift
	// timestamps); swept is the highest cutoff ExpireBefore has seen, the
	// point its next walk starts from.
	shift uint
	swept int64

	// collide (test hook) forces every cut key and dedup signature to
	// hash to the same value, so the differential tests can prove the
	// probe-time equality checks keep results exact under collisions.
	collide bool

	stats Stats
}

// WorkBudget is a per-event work allowance shared across a cascade.
type WorkBudget struct{ Remaining int64 }

// Build constructs a left-deep SJ-Tree for query q from an ordered leaf
// decomposition: leaves[i] lists the query edge indices of the i-th leaf
// subgraph, most selective first. The leaves must be non-empty, disjoint
// and together cover every query edge (Property 1).
func Build(q *query.Graph, leaves [][]int, window int64) (*Tree, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(leaves) == 0 {
		return nil, fmt.Errorf("sjtree: no leaves")
	}
	covered := make([]bool, len(q.Edges))
	for i, leaf := range leaves {
		if len(leaf) == 0 {
			return nil, fmt.Errorf("sjtree: leaf %d is empty", i)
		}
		for _, ei := range leaf {
			if ei < 0 || ei >= len(q.Edges) {
				return nil, fmt.Errorf("sjtree: leaf %d references edge %d out of range", i, ei)
			}
			if covered[ei] {
				return nil, fmt.Errorf("sjtree: query edge %d appears in two leaves", ei)
			}
			covered[ei] = true
		}
	}
	for ei, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("sjtree: query edge %d not covered by any leaf", ei)
		}
	}

	t := &Tree{
		Query: q, Root: None, Window: window, pool: iso.NewMatchPool(q),
		shift: wheelShift(window), swept: math.MinInt64,
	}
	newNode := func() *Node {
		n := &Node{
			ID: len(t.Nodes), Parent: None, Left: None, Right: None,
			Sibling: None, LeafPos: -1, NextLeaf: -1,
			store: store{nv: len(q.Vertices), ne: len(q.Edges)},
		}
		n.reset(0, false)
		t.Nodes = append(t.Nodes, n)
		return n
	}
	mkLeaf := func(pos int) *Node {
		n := newNode()
		n.IsLeaf = true
		n.LeafPos = pos
		n.QEdges = append([]int(nil), leaves[pos]...)
		sort.Ints(n.QEdges)
		n.QVerts = q.EdgeVertices(n.QEdges)
		t.Leaves = append(t.Leaves, n.ID)
		return n
	}

	cur := mkLeaf(0)
	for i := 1; i < len(leaves); i++ {
		right := mkLeaf(i)
		parent := newNode()
		parent.Left, parent.Right = cur.ID, right.ID
		cur.Parent, right.Parent = parent.ID, parent.ID
		cur.Sibling, right.Sibling = right.ID, cur.ID
		parent.QEdges = mergeSorted(cur.QEdges, right.QEdges)
		parent.QVerts = q.EdgeVertices(parent.QEdges)
		parent.Cut = intersectSorted(cur.QVerts, right.QVerts)
		cur.ownVerts = subtractSorted(cur.QVerts, parent.Cut)
		right.ownVerts = subtractSorted(right.QVerts, parent.Cut)
		cur = parent
	}
	t.Root = cur.ID

	// NextLeaf wiring for Lazy Search: the leftmost leaf enables leaf 1;
	// each internal node covering leaves 0..i enables leaf i+1.
	if len(leaves) > 1 {
		t.Nodes[t.Leaves[0]].NextLeaf = 1
	}
	for _, n := range t.Nodes {
		if n.IsLeaf {
			continue
		}
		if covered := countLeavesCovered(t, n); covered < len(leaves) {
			n.NextLeaf = covered
		}
	}
	return t, nil
}

func countLeavesCovered(t *Tree, n *Node) int {
	// A node covers leaf i iff all of leaf i's edges are within n.QEdges.
	in := make(map[int]bool, len(n.QEdges))
	for _, e := range n.QEdges {
		in[e] = true
	}
	covered := 0
	for _, leafID := range t.Leaves {
		leaf := t.Nodes[leafID]
		all := true
		for _, e := range leaf.QEdges {
			if !in[e] {
				all = false
				break
			}
		}
		if all {
			covered++
		}
	}
	return covered
}

func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Ints(out)
	return out
}

func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// subtractSorted returns the elements of a that are not in b.
func subtractSorted(a, b []int) []int {
	var out []int
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			out = append(out, x)
		}
	}
	return out
}

// LeafNode returns the node for the given leaf position.
func (t *Tree) LeafNode(pos int) *Node { return t.Nodes[t.Leaves[pos]] }

// LeafEdges returns the query edge indices of the given leaf position.
func (t *Tree) LeafEdges(pos int) []int { return t.Nodes[t.Leaves[pos]].QEdges }

// LeafVerts returns the sorted query vertices the given leaf's edges
// touch, computed once at Build: what a search around a vertex
// (iso.Matcher.FindAroundVertexFunc) tries the vertex as.
func (t *Tree) LeafVerts(pos int) []int { return t.Nodes[t.Leaves[pos]].QVerts }

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return len(t.Leaves) }

// Stats returns a snapshot of the tree's counters.
func (t *Tree) Stats() Stats { return t.stats }

// joinKey hashes a match's projection onto a cut: the data vertices
// bound to the cut's query vertices, folded in cut order (Property 4's
// projection Π followed by GET-JOIN-KEY) with iso's shared FNV-1a
// scheme. Two matches with equal cut bindings always hash equal;
// unequal bindings may collide, which the probe-time cutEqual check
// makes harmless.
func (t *Tree) joinKey(cut []int, m iso.Match) uint64 {
	if t.collide {
		return 0
	}
	h := iso.HashStart()
	for _, qv := range cut {
		h = iso.HashMix32(h, uint32(m.VertexOf[qv]))
	}
	return h
}

// cutEqual reports whether a and b bind every cut vertex identically —
// the explicit equality check behind each hashed-key probe.
func cutEqual(cut []int, a, b iso.Match) bool {
	for _, qv := range cut {
		if a.VertexOf[qv] != b.VertexOf[qv] {
			return false
		}
	}
	return true
}

// Pool exposes the tree's match pool so the engine can wire it into its
// merge-path matcher (candidate clones then reuse the arrays the last
// Insert handed back).
func (t *Tree) Pool() *iso.MatchPool { return t.pool }

// Release recycles a match the caller owns and is done with: one it
// discarded without inserting (a lazily gated candidate, an excluded
// retrospective match), or a complete match Insert handed to emit. The
// caller must exclusively own m and release it at most once.
func (t *Tree) Release(m iso.Match) { t.pool.Put(m) }

// OnStored observes every match newly stored at a node; Lazy Search uses
// it to enable the next leaf's search around the match's vertices. m is
// valid for the callback only: its arrays go back to the pool when the
// callback returns.
type OnStored func(n *Node, m iso.Match)

// InsertInto runs UPDATE-SJ-TREE (Algorithm 2) for a match discovered at
// the given leaf. Every completed (root-level) match is appended to out:
// a join at the root writes the union of its two sides straight into
// out's slabs, and a one-leaf tree's candidate is copied there. onStored
// (optional) observes every partial match added to a table. It returns
// the number of complete matches produced.
//
// InsertInto takes ownership of m, which must have the query's shape
// (full-length binding arrays): a match that is stored is copied into its
// node's slab, and m's backing arrays are recycled through the tree's
// match pool before InsertInto returns (stored, dedup-suppressed, shed or
// complete alike), so callers must not reuse m after the call.
//
// What lands in out is out's owner's, not the tree's: the tree keeps no
// reference to it, and it stays valid across later inserts and
// ExpireBefore calls until the owner calls out.Reset. The engine does
// that when its next call starts (see "Match lifetimes" in package core).
func (t *Tree) InsertInto(leafPos int, m iso.Match, out *Results, onStored OnStored) int {
	node := t.Nodes[t.Leaves[leafPos]]
	if node.ID == t.Root {
		// A one-leaf tree: the candidate is complete as it stands.
		t.stats.Emitted++
		out.Add(m)
		t.pool.Put(m)
		return 1
	}
	return t.update(node, m, out, onStored)
}

// Insert is InsertInto for a caller that keeps complete matches as arrays
// of its own: emit (optional) receives each one as a clone drawn from the
// tree's pool, after the insert has run. What emit receives belongs to
// the caller, stays valid across later Insert and ExpireBefore calls, and
// goes back to the pool through Release (or to the collector). m is
// taken over as by InsertInto.
func (t *Tree) Insert(leafPos int, m iso.Match, emit func(iso.Match), onStored OnStored) int {
	n := t.InsertInto(leafPos, m, &t.scratch, onStored)
	if emit != nil {
		for _, c := range t.scratch.Matches {
			emit(t.pool.Clone(c))
		}
	}
	t.scratch.Reset()
	return n
}

func (t *Tree) update(node *Node, m iso.Match, out *Results, onStored OnStored) int {
	if t.Budget != nil {
		if t.Budget.Remaining <= 0 {
			t.stats.Shed++
			t.pool.Put(m)
			return 0
		}
		t.Budget.Remaining--
	}
	parent := t.Nodes[node.Parent]
	sibling := t.Nodes[node.Sibling]
	k := t.joinKey(parent.Cut, m)

	// A duplicate insert must be a complete no-op: re-probing the
	// sibling would re-emit every join this match already produced. A
	// signature-hash hit alone is not proof — every live record on the
	// hash's chain is compared binding-for-binding, so a collision
	// cannot suppress a genuine match. The probe never touches the join
	// bucket itself: hub-vertex buckets grow with the window, and a
	// bucket scan would make every duplicate cost O(bucket) right where
	// duplicates are most frequent.
	var sig uint64
	if t.Dedup {
		sig = t.sigHash(node, m)
		if node.hasSig(node.QEdges, sig, m) {
			t.stats.Deduped++
			t.pool.Put(m)
			return 0
		}
	}

	complete := 0
	// Probe the sibling's chain and push successful joins up the tree.
	// The cascade stores at this node's ancestors only, so the sibling's
	// slab — and every view into it — stays put for the whole loop.
	for i := sibling.chain(k); i != nilSlot; i = sibling.recs[i].next {
		if sibling.recs[i].key != k {
			continue // another key on the same directory entry
		}
		ms := sibling.view(i)
		if !cutEqual(parent.Cut, m, ms) {
			continue // hash collision: not actually the same join key
		}
		if t.Budget != nil {
			if t.Budget.Remaining <= 0 {
				t.stats.Shed++
				break
			}
			t.Budget.Remaining--
		}
		t.stats.JoinsAttempted++
		lo, hi, ok := t.joinable(node, sibling, m, ms)
		if !ok {
			continue
		}
		t.stats.JoinsSucceeded++
		if parent.ID == t.Root {
			t.stats.Emitted++
			out.Matches = append(out.Matches, union(out.slot(node.nv, node.ne), sibling, m, ms, lo, hi))
			complete++
			continue
		}
		complete += t.update(parent, union(t.pool.Get(), sibling, m, ms, lo, hi), out, onStored)
	}
	t.storeAt(node, k, sig, m)
	t.stats.Inserted++
	if onStored != nil {
		onStored(node, m)
	}
	t.pool.Put(m)
	return complete
}

// storeAt copies m into node's slab under join key k, files it on the
// timing wheel and, when Dedup is on, under its signature.
func (t *Tree) storeAt(node *Node, k, sig uint64, m iso.Match) {
	node.add(k, sig, t.Dedup, t.wheelSlot(m.MinTS), m)
	t.stats.Stored++
	if t.stats.Stored > t.stats.PeakStored {
		t.stats.PeakStored = t.stats.Stored
	}
}

// sigHash canonicalizes a match's binding at a node into a 64-bit
// hash: the data edge bound to every query edge of the node, plus the
// match's earliest timestamp (edge IDs are recycled after window
// eviction; an identical ID+timestamp combination denotes an
// observably identical edge).
func (t *Tree) sigHash(node *Node, m iso.Match) uint64 {
	if t.collide {
		return 0
	}
	h := iso.HashStart()
	for _, qe := range node.QEdges {
		h = iso.HashMix32(h, uint32(m.EdgeOf[qe]))
	}
	return iso.HashMix64(h, uint64(m.MinTS))
}

// joinable is the admissibility check of a join of a match a of node
// with a match b of its sibling (Definition 3.1.3): vertex injectivity
// holds across the union of their bindings, the data edges are distinct,
// and the combined τ(g) respects the window. It returns the union's
// earliest and latest timestamps. The caller has already established
// that the two agree on the parent's cut (cutEqual).
//
// A match stored at a node binds exactly that node's QVerts and QEdges,
// so which slots can clash is fixed when the tree is built. Vertices:
// only the two sides' vertices outside the cut (ownVerts) — on the cut
// they agree, and a match is injective in itself, so neither side's own
// vertices repeat a cut binding. Edges: the sibling's query edges against
// the node's. Every test reads the two inputs, cheapest first, and none
// writes: only a join that passes gets arrays (union), so the failed
// joins — the overwhelming majority at hub vertices — touch neither the
// pool, nor a Results, nor the heap.
func (t *Tree) joinable(node, sibling *Node, a, b iso.Match) (lo, hi int64, ok bool) {
	lo, hi = a.MinTS, a.MaxTS
	if b.MinTS < lo {
		lo = b.MinTS
	}
	if b.MaxTS > hi {
		hi = b.MaxTS
	}
	if t.Window > 0 && hi-lo >= t.Window {
		return 0, 0, false
	}
	for _, qv := range sibling.ownVerts {
		dv := b.VertexOf[qv]
		for _, qa := range node.ownVerts {
			if a.VertexOf[qa] == dv {
				return 0, 0, false
			}
		}
	}
	for _, qe := range sibling.QEdges {
		de := b.EdgeOf[qe]
		for _, qa := range node.QEdges {
			if a.EdgeOf[qa] == de {
				return 0, 0, false
			}
		}
	}
	return lo, hi, true
}

// union writes the join of a with b, a match of sibling that joinable
// admitted with timestamps lo..hi, into out's arrays and returns out: a
// pool array for an interior join, a Results slot for a join at the root.
func union(out iso.Match, sibling *Node, a, b iso.Match, lo, hi int64) iso.Match {
	copy(out.VertexOf, a.VertexOf)
	copy(out.EdgeOf, a.EdgeOf)
	for _, qv := range sibling.ownVerts {
		out.VertexOf[qv] = b.VertexOf[qv]
	}
	for _, qe := range sibling.QEdges {
		out.EdgeOf[qe] = b.EdgeOf[qe]
	}
	out.MinTS, out.MaxTS = lo, hi
	return out
}

// RestoreStored re-inserts a previously stored partial match at the
// given node without probing the sibling or cascading joins — the
// snapshot/restore path, where every join the match could produce was
// already produced before the snapshot was taken. The match must bind
// exactly the node's subgraph — its QVerts and QEdges, nothing else, as
// every match the tree stored itself does and Tree.joinable relies on; only
// structural checks are performed. m is copied into the node's slab and
// stays the caller's, who may refill it for the next call.
func (t *Tree) RestoreStored(nodeID int, m iso.Match) error {
	if nodeID < 0 || nodeID >= len(t.Nodes) {
		return fmt.Errorf("sjtree: node %d out of range", nodeID)
	}
	node := t.Nodes[nodeID]
	if node.ID == t.Root {
		return fmt.Errorf("sjtree: the root stores no matches")
	}
	if len(m.VertexOf) != node.nv || len(m.EdgeOf) != node.ne {
		return fmt.Errorf("sjtree: match has %d vertex and %d edge slots, query has %d and %d",
			len(m.VertexOf), len(m.EdgeOf), node.nv, node.ne)
	}
	var sig uint64
	if t.Dedup {
		sig = t.sigHash(node, m)
	}
	t.storeAt(node, t.joinKey(t.Nodes[node.Parent].Cut, m), sig, m)
	return nil
}

// ReserveStored presizes the node stores for a restore: node i's for
// counts[i] matches, so that as many RestoreStored calls at it fill its
// slab and directories without growing them. A node that holds a match
// is left as it is.
func (t *Tree) ReserveStored(counts []int) {
	for i, n := range counts {
		if i < len(t.Nodes) && n > 0 && t.Nodes[i].live == 0 {
			t.Nodes[i].reset(n, t.Dedup)
		}
	}
}

// ExpireBefore evicts every stored match whose earliest edge is older
// than cutoff; such matches can no longer complete within the window
// once the stream has advanced past cutoff + tW. Returns the number of
// matches evicted.
//
// Eviction is incremental and exact: each node's timing wheel (see
// store.go) files a match under its MinTS, a pass walks only the wheel
// buckets between the highest cutoff seen so far and the new one, and
// every record it meets is judged by its own MinTS. So a pass costs the
// expired matches plus what shares their last, partly expired bucket; a
// pass that expires nothing scans nothing (Stats.ExpireScanned pins
// this); and timestamps that regress, gaps wider than the window and a
// cutoff lower than an earlier one cost kept scans, never a wrong or a
// missed eviction.
func (t *Tree) ExpireBefore(cutoff int64) int {
	from := t.swept
	t.swept = max(t.swept, cutoff)
	first := from >> t.shift
	// The difference of two bucket numbers fits 64 bits unsigned, not
	// signed (swept starts at math.MinInt64).
	buckets := wheelBuckets
	if span := uint64(t.swept>>t.shift) - uint64(first); span < wheelBuckets {
		buckets = int(span) + 1
	}
	evicted := 0
	for _, n := range t.Nodes {
		if n.live > 0 {
			ev, scanned := n.expire(uint64(first), buckets, cutoff)
			evicted += ev
			t.stats.ExpireScanned += int64(scanned)
			if n.sparse() {
				n.compact(t)
			}
		}
	}
	t.stats.Stored -= int64(evicted)
	t.stats.Evicted += int64(evicted)
	t.scratch.Swept()
	return evicted
}

// wheelSlot names the wheel bucket a match with earliest timestamp ts
// is filed under. A straggler older than the last cutoff goes where the
// next pass starts, so that pass finds it.
func (t *Tree) wheelSlot(ts int64) int {
	return int(uint64(max(ts, t.swept)>>t.shift) % wheelBuckets)
}

// StoredMatches returns the number of live partial matches across all
// nodes.
func (t *Tree) StoredMatches() int { return int(t.stats.Stored) }

// EachStored invokes fn for every stored partial match. Returning false
// stops the iteration. The tree must not be mutated during iteration,
// and m is a view into the node's slab, valid for the callback only:
// the next Insert or ExpireBefore may overwrite or move what it points
// at, so a caller that keeps it Clones it.
func (t *Tree) EachStored(fn func(n *Node, m iso.Match) bool) {
	for _, n := range t.Nodes {
		for i := range n.recs {
			if n.recs[i].prev != freeSlot && !fn(n, n.view(int32(i))) {
				return
			}
		}
	}
}

// LeafSets returns the decomposition as leaf edge-index lists in
// left-to-right order (a copy).
func (t *Tree) LeafSets() [][]int {
	out := make([][]int, len(t.Leaves))
	for i, id := range t.Leaves {
		out[i] = append([]int(nil), t.Nodes[id].QEdges...)
	}
	return out
}

// TableSize returns the number of matches stored at the given node.
func (t *Tree) TableSize(nodeID int) int { return t.Nodes[nodeID].live }

// String renders a compact structural description of the tree.
func (t *Tree) String() string {
	s := fmt.Sprintf("sjtree{leaves=%d", len(t.Leaves))
	for i, id := range t.Leaves {
		s += fmt.Sprintf(" L%d=%v", i, t.Nodes[id].QEdges)
	}
	return s + "}"
}
