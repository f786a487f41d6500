package sjtree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
)

// refTree is a reference implementation of UPDATE-SJ-TREE (Algorithm 2)
// with byte-exact string join keys and signatures — the pre-hashing
// layout. The differential tests drive it in lockstep with the hashed
// Tree to prove the 64-bit keys plus probe-time equality checks change
// nothing observable, even when every key is forced to collide.
type refTree struct {
	t      *Tree // structure only (nodes, cuts, leaves)
	window int64
	dedup  bool
	tables []map[string][]iso.Match
	seen   []map[string]bool
	stored int

	// attempted and succeeded mirror Stats.JoinsAttempted/JoinsSucceeded;
	// reasons counts the outcomes of refJoin by kind.
	attempted, succeeded int64
	reasons              [numJoinOutcomes]int
	// onJoin (optional) observes every join the reference attempts.
	onJoin func(node, sibling *Node, a, b, out iso.Match, why joinOutcome)
}

func newRefTree(q *query.Graph, leaves [][]int, window int64, dedup bool) (*refTree, error) {
	t, err := Build(q, leaves, window)
	if err != nil {
		return nil, err
	}
	r := &refTree{t: t, window: window, dedup: dedup}
	r.tables = make([]map[string][]iso.Match, len(t.Nodes))
	r.seen = make([]map[string]bool, len(t.Nodes))
	for i := range r.tables {
		r.tables[i] = make(map[string][]iso.Match)
		r.seen[i] = make(map[string]bool)
	}
	return r, nil
}

func refKey(cut []int, m iso.Match) string {
	buf := make([]byte, 4*len(cut))
	for i, qv := range cut {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(m.VertexOf[qv]))
	}
	return string(buf)
}

func refSig(node *Node, m iso.Match) string {
	buf := make([]byte, 0, 4*len(node.QEdges)+8)
	for _, qe := range node.QEdges {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(m.EdgeOf[qe]))
		buf = append(buf, b[:]...)
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(m.MinTS))
	buf = append(buf, b[:]...)
	return string(buf)
}

func (r *refTree) insert(leafPos int, m iso.Match, emit func(iso.Match)) {
	r.update(r.t.Nodes[r.t.Leaves[leafPos]], m, emit)
}

func (r *refTree) update(node *Node, m iso.Match, emit func(iso.Match)) {
	if node.ID == r.t.Root {
		if emit != nil {
			emit(m)
		}
		return
	}
	parent := r.t.Nodes[node.Parent]
	sibling := r.t.Nodes[node.Sibling]
	k := refKey(parent.Cut, m)
	if r.dedup && r.seen[node.ID][refSig(node, m)] {
		return
	}
	for _, ms := range r.tables[sibling.ID][k] {
		r.attempted++
		sup, why := refJoin(r.window, m, ms)
		r.reasons[why]++
		if r.onJoin != nil {
			r.onJoin(node, sibling, m, ms, sup, why)
		}
		if why == joinOK {
			r.succeeded++
			r.update(parent, sup, emit)
		}
	}
	r.tables[node.ID][k] = append(r.tables[node.ID][k], m)
	if r.dedup {
		r.seen[node.ID][refSig(node, m)] = true
	}
	r.stored++
}

// joinOutcome says how refJoin ended.
type joinOutcome int

const (
	joinOK joinOutcome = iota
	rejectWindow
	rejectCut        // a shared query vertex bound differently
	rejectInjective  // one data vertex for two query vertices
	rejectSharedEdge // a query edge bound on both sides
	rejectDupEdge    // one data edge for two query edges
	numJoinOutcomes
)

// refJoin is the generic join the tree used before its joins were
// compiled per node at Build (Definition 3.1.3 in the original
// clone-then-check shape): it knows nothing about which slots a node
// binds, scans every slot of b, and rechecks shared vertices itself.
// Tree.joinable and union must agree with it on every pair of matches a
// tree can hold.
func refJoin(window int64, a, b iso.Match) (iso.Match, joinOutcome) {
	if window > 0 {
		lo, hi := a.MinTS, a.MaxTS
		if b.MinTS < lo {
			lo = b.MinTS
		}
		if b.MaxTS > hi {
			hi = b.MaxTS
		}
		if hi-lo >= window {
			return iso.Match{}, rejectWindow
		}
	}
	out := a.Clone()
	for qv, dv := range b.VertexOf {
		if dv == graph.NoVertex {
			continue
		}
		if cur := out.VertexOf[qv]; cur != graph.NoVertex {
			if cur != dv {
				return iso.Match{}, rejectCut
			}
			continue
		}
		for qv2, dv2 := range out.VertexOf {
			if dv2 == dv && qv2 != qv {
				return iso.Match{}, rejectInjective
			}
		}
		out.VertexOf[qv] = dv
	}
	for qe, de := range b.EdgeOf {
		if de == iso.NoEdge {
			continue
		}
		if out.EdgeOf[qe] != iso.NoEdge {
			return iso.Match{}, rejectSharedEdge
		}
		for _, de2 := range out.EdgeOf {
			if de2 == de {
				return iso.Match{}, rejectDupEdge
			}
		}
		out.EdgeOf[qe] = de
	}
	if b.MinTS < out.MinTS {
		out.MinTS = b.MinTS
	}
	if b.MaxTS > out.MaxTS {
		out.MaxTS = b.MaxTS
	}
	return out, joinOK
}

func (r *refTree) expireBefore(cutoff int64) int {
	evicted := 0
	for id := range r.tables {
		for k, bucket := range r.tables[id] {
			kept := bucket[:0]
			for _, m := range bucket {
				if m.MinTS < cutoff {
					evicted++
					continue
				}
				kept = append(kept, m)
			}
			if len(kept) == 0 {
				delete(r.tables[id], k)
			} else {
				r.tables[id][k] = kept
			}
		}
		node := r.t.Nodes[id]
		for sig := range r.seen[id] {
			// Reconstruct MinTS from the signature suffix.
			ts := int64(binary.LittleEndian.Uint64([]byte(sig[len(sig)-8:])))
			_ = node
			if ts < cutoff {
				delete(r.seen[id], sig)
			}
		}
	}
	r.stored -= evicted
	return evicted
}

// matchString canonicalizes a match for cross-implementation
// comparison.
func matchString(m iso.Match) string {
	return fmt.Sprintf("v=%v e=%v ts=[%d,%d]", m.VertexOf, m.EdgeOf, m.MinTS, m.MaxTS)
}

// A tsShape says how a differential script draws its timestamps and
// sweep cutoffs. shapeRandom is the original net: both uniform over one
// fixed range, so cutoffs regress as often as they advance and no slot
// is ever under pressure. The others follow a clock that runs through
// at least three windows and more than one turn of the timing wheel, and
// sweep at the clock's cutoff the way an engine does, so every slab slot
// and every wheel bucket is freed and taken again several times.
type tsShape int

const (
	shapeRandom        tsShape = iota
	shapeInOrder               // every edge carries the clock's time
	shapeRegressInside         // one edge in four is late by less than a window
	shapeRegressBeyond         // one in six is late by up to three windows; one sweep in four cuts off at an earlier time than the last
	shapeGap                   // the clock jumps three windows ahead, twice
)

var clockedShapes = []tsShape{shapeInOrder, shapeRegressInside, shapeRegressBeyond, shapeGap}

func (s tsShape) String() string {
	return [...]string{"random", "in-order", "regress-inside", "regress-beyond", "gap"}[s]
}

// scriptConfig is one differential run: a 3-edge path query under the
// given decomposition, tree window and tree flags, and a script of the
// given shape. span is the window the script's clock and cutoffs go by —
// the tree's own, except where the tree has none (Window == 0).
type scriptConfig struct {
	seed    int64
	leaves  [][]int
	window  int64
	span    int64
	shape   tsShape
	dedup   bool
	collide bool
}

func (c scriptConfig) String() string {
	return fmt.Sprintf("seed %d leaves %v window %d %v dedup=%v collide=%v", c.seed, c.leaves, c.window, c.shape, c.dedup, c.collide)
}

// storedHashes lists a hash of every match a tree and its reference
// hold, each list sorted, for a multiset comparison (a sweep is followed
// by one, so it has to be cheaper than matchString).
func storedHashes(tr *Tree, ref *refTree) (got, want []uint64) {
	hash := func(node int, m iso.Match) uint64 {
		h := iso.HashMix32(iso.HashStart(), uint32(node))
		for _, dv := range m.VertexOf {
			h = iso.HashMix32(h, uint32(dv))
		}
		for _, de := range m.EdgeOf {
			h = iso.HashMix32(h, uint32(de))
		}
		return iso.HashMix64(iso.HashMix64(h, uint64(m.MinTS)), uint64(m.MaxTS))
	}
	tr.EachStored(func(n *Node, m iso.Match) bool {
		got = append(got, hash(n.ID, m))
		return true
	})
	for id, table := range ref.tables {
		for _, bucket := range table {
			for _, m := range bucket {
				want = append(want, hash(id, m))
			}
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	return got, want
}

// runScript drives the slab tree (optionally with forced hash
// collisions) and the string-key reference through an identical insert
// and expiry schedule. After every insert the emitted matches must be
// equal in order (bucket chains keep insertion order whatever slots they
// run through) and so must the stored counts. After every
// ExpireBefore(cutoff) the two must have evicted the same number, the
// tree must hold exactly the reference's matches and none with MinTS <
// cutoff, the same cutoff again must evict nothing and scan nothing, and
// no slab may be left under a quarter full. It returns the tree for its
// counters, and how many times a sweep ended with a slab rebuilt smaller.
func runScript(t *testing.T, c scriptConfig) (tr *Tree, compactions int) {
	t.Helper()
	q := query.NewPath(query.Wildcard, "a", "b", "c")

	tr, err := Build(q, c.leaves, c.window)
	if err != nil {
		t.Fatal(err)
	}
	tr.Dedup = c.dedup
	tr.collide = c.collide
	slots := make([]int, len(tr.Nodes))
	ref, err := newRefTree(q, c.leaves, c.window, c.dedup)
	if err != nil {
		t.Fatal(err)
	}

	var got, want []string
	emitGot := func(m iso.Match) { got = append(got, matchString(m)) }
	emitWant := func(m iso.Match) { want = append(want, matchString(m)) }

	expire := func(step int, cutoff int64) {
		for i, n := range tr.Nodes {
			slots[i] = len(n.recs)
		}
		ev1 := tr.ExpireBefore(cutoff)
		ev2 := ref.expireBefore(cutoff)
		if ev1 != ev2 {
			t.Fatalf("%v step %d: ExpireBefore(%d) evicted %d, reference %d", c, step, cutoff, ev1, ev2)
		}
		held, refHeld := storedHashes(tr, ref)
		if !slices.Equal(held, refHeld) {
			t.Fatalf("%v step %d: after ExpireBefore(%d) the tree holds %d matches, the reference %d, or other ones", c, step, cutoff, len(held), len(refHeld))
		}
		if st := tr.Stats().Stored; int(st) != len(held) || int(st) != ref.stored {
			t.Fatalf("%v step %d: Stats().Stored = %d, EachStored yields %d, reference holds %d", c, step, st, len(held), ref.stored)
		}
		tr.EachStored(func(_ *Node, m iso.Match) bool {
			if m.MinTS < cutoff {
				t.Fatalf("%v step %d: %s survived ExpireBefore(%d)", c, step, matchString(m), cutoff)
			}
			return true
		})
		scanned := tr.Stats().ExpireScanned
		if ev := tr.ExpireBefore(cutoff); ev != 0 || tr.Stats().ExpireScanned != scanned {
			t.Fatalf("%v step %d: ExpireBefore(%d) again evicted %d and scanned %d", c, step, cutoff, ev, tr.Stats().ExpireScanned-scanned)
		}
		for i, n := range tr.Nodes {
			if n.sparse() {
				t.Fatalf("%v step %d: node %d keeps %d slots for %d matches after a sweep", c, step, i, len(n.recs), n.live)
			}
			if len(n.recs) < slots[i] {
				compactions++
			}
		}
	}

	for step, op := range genScript(c, q) {
		if op.sweep {
			expire(step, op.cutoff)
			continue
		}
		got, want = got[:0], want[:0]
		tr.Insert(op.leaf, op.m.Clone(), emitGot, nil)
		ref.insert(op.leaf, op.m, emitWant)
		if len(got) != len(want) {
			t.Fatalf("%v step %d: emitted %d matches, reference %d", c, step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v step %d: match %d = %s, reference %s", c, step, i, got[i], want[i])
			}
		}
		if int(tr.Stats().Stored) != ref.stored {
			t.Fatalf("%v step %d: stored %d, reference %d", c, step, tr.Stats().Stored, ref.stored)
		}
	}
	return tr, compactions
}

// scriptOp is one step of a differential script: a sweep at cutoff, or
// the insert of leaf match m at leaf.
type scriptOp struct {
	sweep  bool
	cutoff int64
	leaf   int
	m      iso.Match
}

// genScript draws the script of c over q, a 3-edge path: what runScript
// drives its tree and the reference through, step for step.
func genScript(c scriptConfig, q *query.Graph) []scriptOp {
	rng := rand.New(rand.NewSource(c.seed))
	var ops, history []scriptOp
	nextEdge := graph.EdgeID(100)
	steps := 400
	var clock, lastCutoff int64
	if c.shape != shapeRandom {
		// The clock gains 1.5 a step: six windows, or two turns of the
		// wheel and a window, whichever is longer.
		steps = int(max(6*c.span, 2*wheelBuckets<<wheelShift(c.window)+c.span) * 2 / 3)
	}
	for step := 0; step < steps; step++ {
		sweep, cutoff := rng.Intn(12) == 0, int64(rng.Intn(600))
		if c.shape != shapeRandom {
			clock += int64(rng.Intn(4))
			if c.shape == shapeGap && (step == steps/3 || step == 2*steps/3) {
				clock += 3 * c.span
			}
			sweep, cutoff = step%8 == 7, clock-c.span+1
			if c.shape == shapeRegressBeyond && sweep && rng.Intn(4) == 0 {
				cutoff = lastCutoff - int64(rng.Intn(int(c.span)))
			}
		}
		if sweep {
			ops = append(ops, scriptOp{sweep: true, cutoff: cutoff})
			lastCutoff = cutoff
			continue
		}
		if c.dedup && len(history) > 0 && rng.Intn(5) == 0 {
			// Replay an earlier leaf match verbatim: Lazy Search's
			// retrospective repair rediscovers stored matches, and the
			// replay must be a complete no-op on both implementations
			// while the original is stored (and a straggler's insert once
			// it has been evicted).
			h := history[rng.Intn(len(history))]
			ops = append(ops, scriptOp{leaf: h.leaf, m: h.m.Clone()})
			continue
		}
		leaf := rng.Intn(len(c.leaves))
		m := iso.NewMatch(q)
		for _, qe := range c.leaves[leaf] {
			m.EdgeOf[qe] = nextEdge
			nextEdge++
			ts := int64(rng.Intn(500))
			if c.shape == shapeRandom {
				m.VertexOf[q.Edges[qe].Src] = graph.VertexID(rng.Intn(6))
				m.VertexOf[q.Edges[qe].Dst] = graph.VertexID(rng.Intn(6) + 6)
			} else {
				ts = clock
				switch {
				case c.shape == shapeRegressInside && rng.Intn(4) == 0:
					ts -= int64(rng.Intn(int(c.span)))
				case c.shape == shapeRegressBeyond && rng.Intn(6) == 0:
					ts -= int64(rng.Intn(int(3 * c.span)))
				}
			}
			if ts < m.MinTS {
				m.MinTS = ts
			}
			if ts > m.MaxTS {
				m.MaxTS = ts
			}
		}
		if c.shape != shapeRandom {
			// One small domain (wider for a wider window, to keep the
			// join fan-out) for every query vertex, bound injectively, so
			// that sibling leaves do agree on a cut and every level of the
			// tree stores and joins.
			dom := rng.Perm(int(max(12, c.span/16)))
			for i, qv := range q.EdgeVertices(c.leaves[leaf]) {
				m.VertexOf[qv] = graph.VertexID(dom[i])
			}
		}
		history = append(history, scriptOp{leaf: leaf, m: m.Clone()})
		ops = append(ops, scriptOp{leaf: leaf, m: m})
	}
	return ops
}

// runDifferential is runScript over every timestamp shape.
func runDifferential(t *testing.T, seed int64, leaves [][]int, dedup, collide bool) {
	t.Helper()
	const window = 200
	runScript(t, scriptConfig{seed: seed, leaves: leaves, window: window, span: window, shape: shapeRandom, dedup: dedup, collide: collide})
	if seed > 2 {
		return // the clocked scripts are ten times as long
	}
	for _, shape := range clockedShapes {
		tr, _ := runScript(t, scriptConfig{seed: seed, leaves: leaves, window: window, span: window, shape: shape, dedup: dedup, collide: collide})
		// Every slot was recycled: the slabs never grew past what the
		// fullest window held, while several times that went through them.
		slots := 0
		for _, n := range tr.Nodes {
			slots += len(n.recs)
		}
		if st := tr.Stats(); st.Emitted == 0 || st.Evicted < 2*int64(slots) {
			t.Errorf("seed %d %v: %d emitted, %d evicted through %d slots: the script recycled too little", seed, shape, st.Emitted, st.Evicted, slots)
		}
	}
}

// TestDifferentialHashedVsStringKeys drives randomized streams through
// both implementations across decompositions, dedup modes and timestamp
// shapes.
func TestDifferentialHashedVsStringKeys(t *testing.T) {
	for _, leaves := range [][][]int{{{0}, {1}, {2}}, {{0, 1}, {2}}} {
		for _, dedup := range []bool{false, true} {
			for seed := int64(1); seed <= 8; seed++ {
				runDifferential(t, seed, leaves, dedup, false)
			}
		}
	}
}

// TestDifferentialForcedCollisions reruns the differential net with the
// hash hook forcing every cut key and dedup signature onto a single
// value — one join chain and one dedup chain per node, through every
// slot: the probe-time cut-equality and signature-equality checks must
// keep results byte-identical to the string-key reference.
func TestDifferentialForcedCollisions(t *testing.T) {
	for _, leaves := range [][][]int{{{0}, {1}, {2}}, {{0, 1}, {2}}} {
		for _, dedup := range []bool{false, true} {
			for seed := int64(1); seed <= 8; seed++ {
				runDifferential(t, seed, leaves, dedup, true)
			}
		}
	}
}

// TestDifferentialFixedScript pins a deterministic scripted sequence —
// join cascade, duplicate suppression, window rejection, expiry — on
// both implementations, with and without forced collisions.
func TestDifferentialFixedScript(t *testing.T) {
	for _, collide := range []bool{false, true} {
		q := query.NewPath(query.Wildcard, "a", "b", "c")
		leaves := [][]int{{0}, {1}, {2}}
		tr, err := Build(q, leaves, 100)
		if err != nil {
			t.Fatal(err)
		}
		tr.Dedup = true
		tr.collide = collide
		ref, err := newRefTree(q, leaves, 100, true)
		if err != nil {
			t.Fatal(err)
		}
		script := []struct {
			leaf int
			e    graph.EdgeID
			s, d graph.VertexID
			ts   int64
		}{
			{0, 100, 1, 2, 10},
			{1, 101, 2, 3, 20},
			{2, 102, 3, 4, 30},  // completes 100-101-102
			{1, 101, 2, 3, 20},  // duplicate: must be a no-op
			{2, 103, 3, 5, 200}, // window-rejected against the 10..20 partial
			{0, 104, 7, 2, 95},  // same cut vertex 2: joins 101
		}
		for i, s := range script {
			m := iso.NewMatch(q)
			qe := leaves[s.leaf][0]
			m.EdgeOf[qe] = s.e
			m.VertexOf[q.Edges[qe].Src] = s.s
			m.VertexOf[q.Edges[qe].Dst] = s.d
			m.MinTS, m.MaxTS = s.ts, s.ts
			var got, want []string
			tr.Insert(s.leaf, m.Clone(), func(cm iso.Match) { got = append(got, matchString(cm)) }, nil)
			ref.insert(s.leaf, m, func(cm iso.Match) { want = append(want, matchString(cm)) })
			if len(got) != len(want) {
				t.Fatalf("collide=%v step %d: emitted %d, reference %d", collide, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("collide=%v step %d: %s != %s", collide, i, got[j], want[j])
				}
			}
		}
		if ev1, ev2 := tr.ExpireBefore(96), ref.expireBefore(96); ev1 != ev2 {
			t.Fatalf("collide=%v: evicted %d, reference %d", collide, ev1, ev2)
		}
		if int(tr.Stats().Stored) != ref.stored {
			t.Fatalf("collide=%v: stored %d, reference %d", collide, tr.Stats().Stored, ref.stored)
		}
	}
}
