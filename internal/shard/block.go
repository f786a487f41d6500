package shard

// blockSize is the most matches one collection block carries. Large
// enough that the per-block costs (one channel operation each way, two
// shared counters, one walk of the arrival ring) vanish against
// resolving the matches; small enough that a block's slabs stay a few
// tens of KiB and Config.OutLen keeps its meaning as a bound in matches.
const blockSize = 256

// poolDepth bounds the router's free list of blocks: what the default
// collection budget (OutLen 1024) keeps in flight — four full blocks
// queued, one in each of two slots' hands, one in Drain's, one to spare.
// Blocks are made on demand, so a router holds as many as were ever in
// flight at once and never more than this; at ~88 KiB a grown block of
// 2-hop matches that is at most 0.7 MiB, less than the per-edge arrival
// ring (1 MiB) the per-call ring (96 KiB, telemetry.go) replaced.
const poolDepth = 8

// block is one collection block: the matches and the two slabs their
// Bindings and Edges are windows of, owned as one value by exactly one
// party at a time — the producer filling it, the collection channel, the
// consumer (Drain) running its callbacks, or the free list.
type block struct {
	matches  []Match
	bindings []Binding
	edges    []MatchEdge
}

// recycleHook, when non-nil, sees every block handed back before it is
// reused. Tests set it (poison_test.go) to scribble over the block, so
// that whatever kept a match past its callback reads the scribble.
var recycleHook func(*block)

// getBlock draws an empty block from the free list, or makes one when
// the list is empty — a producer never waits for a block — with room for
// n matches binding nb vertices and ne edges in all, so that filling it
// never moves a slab and every match stays a window of the two. A
// recycled block has the room once it has carried a full load.
func (r *Router) getBlock(n, nb, ne int) *block {
	var b *block
	select {
	case b = <-r.free:
	default:
		b = new(block)
	}
	if cap(b.matches) < n {
		b.matches = make([]Match, 0, n)
	}
	if cap(b.bindings) < nb {
		b.bindings = make([]Binding, 0, nb)
	}
	if cap(b.edges) < ne {
		b.edges = make([]MatchEdge, 0, ne)
	}
	return b
}

// putBlock hands a block whose matches nobody reads any more back to
// the free list; one that finds the list full is left to the collector.
// The slabs are truncated, not cleared: the names they point at stay
// reachable until the block is refilled, a few thousand strings at most.
func (r *Router) putBlock(b *block) {
	if recycleHook != nil {
		recycleHook(b)
	}
	b.matches, b.bindings, b.edges = b.matches[:0], b.bindings[:0], b.edges[:0]
	select {
	case r.free <- b:
	default:
	}
}

// blockOf returns a block holding copies of ms, at most blockSize of
// them, their Bindings and Edges copied into the block's slabs: how
// matches that were not resolved into a block — a remote slot's decoded
// frames, the ordered merge's sorted round — join the one collection
// path.
func (r *Router) blockOf(ms []Match) *block {
	nb, ne := 0, 0
	for i := range ms {
		nb += len(ms[i].Bindings)
		ne += len(ms[i].Edges)
	}
	b := r.getBlock(len(ms), nb, ne)
	for _, m := range ms {
		b0, e0 := len(b.bindings), len(b.edges)
		b.bindings = append(b.bindings, m.Bindings...)
		b.edges = append(b.edges, m.Edges...)
		m.Bindings = b.bindings[b0:len(b.bindings):len(b.bindings)]
		m.Edges = b.edges[e0:len(b.edges):len(b.edges)]
		b.matches = append(b.matches, m)
	}
	return b
}
