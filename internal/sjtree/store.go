// The per-node store of partial matches: one pointer-free slab, a chained
// hash table over it for the join buckets and another for the dedup
// index, and a timing wheel over MinTS for window expiry.
//
// A stored match is a record addressed by an int32 slot: a fixed header
// (rec) in recs, and its full-length vertex and edge bindings at the same
// slot of verts and edges, so a view (an iso.Match sliced out of the two
// binding arrays) is what join, OnStored and EachStored read without a
// copy. No array here holds a pointer: the collector never scans a stored
// match, and an evicted slot goes on a free list and is reused in place.
//
// Join buckets: dir maps the hashed cut key (Property 4's projection Π,
// see Tree.joinKey) to a chain through the records themselves — every
// record whose key falls on that directory entry, in insertion order.
// next ends at nilSlot; prev is circular, so the first record's prev is
// the last and an append is O(1), as is an unlink. A probe skips the
// records of other keys and re-checks cut-binding equality on the rest,
// so a hash collision can only cost a skipped comparison, never a wrong
// join. The directory is kept at least twice as long as the slab, so a
// chain is one bucket and now and then a stranger.
//
// Dedup index (Tree.Dedup, Lazy Search re-discovers matches): sdir does
// the same by binding-signature hash (Tree.sigHash), chained through
// snext in no particular order. A probe compares bindings against each
// record of its hash, never a join bucket, whose length is unbounded at
// hub vertices. The record keeps both hashes, so nothing is rehashed to
// evict it or to grow a directory.
//
// Timing wheel: wheelBuckets lists of slots through wnext, each with the
// minimum MinTS on it. A record is filed under bucket number
// max(MinTS, Tree.swept) >> Tree.shift, modulo the wheel size, with
// shift chosen so the wheel spans at least two windows: the matches of
// one window, and those the stream adds before the next sweep, fall on
// distinct buckets, and the newest never share one with the expiring.
// Which bucket a record is on decides only when it is looked at — it is
// evicted on its own MinTS — so anything that lands elsewhere than an
// in-order stream would put it (a straggler, a lap of the wheel after a
// gap, Window == 0) costs kept scans and nothing else.
package sjtree

import (
	"math"
	"math/bits"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
)

const (
	// wheelBuckets is the size of every node's timing wheel; a power of
	// two. At two windows per turn a bucket is under 1/256 of a window
	// wide, which bounds what a sweep rescans in its last, partly expired
	// bucket.
	wheelBuckets = 512

	// minSlots is the smallest slab worth compacting, and the size a
	// compacted one is never made smaller than.
	minSlots = 64

	nilSlot  = int32(-1) // end of a chain
	freeSlot = int32(-2) // rec.prev of a slot on the free list
)

// wheelShift returns the log2 bucket width for a window: the smallest
// power of two that makes wheelBuckets buckets span two windows.
func wheelShift(window int64) uint {
	if window <= wheelBuckets/2 {
		return 0
	}
	return uint(bits.Len64(uint64(window-1) / (wheelBuckets / 2)))
}

// rec is the header of one stored match.
type rec struct {
	minTS, maxTS int64
	key          uint64 // hashed cut key
	sig          uint64 // dedup signature hash; 0 if stored with Dedup off
	next, prev   int32  // join chain (free list through next)
	wnext        int32  // wheel bucket list
	snext        int32  // dedup chain
}

type store struct {
	nv, ne int // slots per record in verts and edges
	recs   []rec
	verts  []graph.VertexID
	edges  []graph.EdgeID
	free   int32 // first free slot, or nilSlot
	live   int   // records in use

	// dir and sdir hold the first slot of each chain, or nilSlot; both
	// are 1<<(64-dirShift) long. sdir is nil until a match is stored with
	// Dedup on.
	dir, sdir []int32
	dirShift  uint

	wheel [wheelBuckets]int32 // first slot per bucket, or nilSlot
	wmin  [wheelBuckets]int64 // least MinTS per non-empty bucket
}

// reset empties the store and sizes it for the given number of slots.
func (s *store) reset(slots int, dedup bool) {
	*s = store{
		nv: s.nv, ne: s.ne, free: nilSlot,
		recs:  make([]rec, 0, slots),
		verts: make([]graph.VertexID, 0, slots*s.nv),
		edges: make([]graph.EdgeID, 0, slots*s.ne),
	}
	for i := range s.wheel {
		s.wheel[i] = nilSlot
	}
	if slots == 0 {
		return // the first add makes the directories
	}
	s.dir, s.dirShift = newDir(2 * slots)
	if dedup {
		s.sdir, _ = newDir(2 * slots)
	}
}

// newDir returns an empty directory of at least n >= 2 entries, a power
// of two, and the shift that maps a 64-bit hash onto it.
func newDir(n int) ([]int32, uint) {
	b := bits.Len(uint(n - 1))
	d := make([]int32, 1<<b)
	for i := range d {
		d[i] = nilSlot
	}
	return d, uint(64 - b)
}

// at maps a hash to its directory entry: the high bits of a Fibonacci
// multiply, which depend on every bit of the hash.
func (s *store) at(h uint64) uint64 { return h * 0x9E3779B97F4A7C15 >> s.dirShift }

// view returns the match stored at slot i, its binding slices pointing
// into the slab.
func (s *store) view(i int32) iso.Match {
	r := &s.recs[i]
	v, e := int(i)*s.nv, int(i)*s.ne
	return iso.Match{
		VertexOf: s.verts[v : v+s.nv : v+s.nv],
		EdgeOf:   s.edges[e : e+s.ne : e+s.ne],
		MinTS:    r.minTS,
		MaxTS:    r.maxTS,
	}
}

// chain returns the first slot of the join chain key k falls on, or
// nilSlot. The chain also carries the records of other keys.
func (s *store) chain(k uint64) int32 {
	if s.live == 0 {
		return nilSlot
	}
	return s.dir[s.at(k)]
}

// hasSig reports whether a live record binds qedges and MinTS exactly as
// m, whose signature hash is sig, does.
func (s *store) hasSig(qedges []int, sig uint64, m iso.Match) bool {
	if s.sdir == nil {
		return false
	}
chain:
	for i := s.sdir[s.at(sig)]; i != nilSlot; i = s.recs[i].snext {
		if s.recs[i].sig != sig || s.recs[i].minTS != m.MinTS {
			continue
		}
		bound := s.edges[int(i)*s.ne:]
		for _, qe := range qedges {
			if bound[qe] != m.EdgeOf[qe] {
				continue chain
			}
		}
		return true
	}
	return false
}

// add copies m into a free slot, appends it to the join chain of key k,
// files it on wheel bucket w and, if dedup is set, under signature sig.
func (s *store) add(k, sig uint64, dedup bool, w int, m iso.Match) {
	i := s.free
	if i != nilSlot {
		s.free = s.recs[i].next
		copy(s.verts[int(i)*s.nv:], m.VertexOf)
		copy(s.edges[int(i)*s.ne:], m.EdgeOf)
	} else {
		if 2*len(s.recs) >= len(s.dir) {
			s.rehash()
		}
		if n := len(s.recs); n == cap(s.recs) {
			// Double by hand: append would grow a large slab by a quarter
			// at a time, and a table that empties and refills with every
			// burst of the stream would be copied five times over on each
			// way up instead of twice.
			n = max(2*n, minSlots)
			s.recs = append(make([]rec, 0, n), s.recs...)
			s.verts = append(make([]graph.VertexID, 0, n*s.nv), s.verts...)
			s.edges = append(make([]graph.EdgeID, 0, n*s.ne), s.edges...)
		}
		i = int32(len(s.recs))
		s.recs = append(s.recs, rec{})
		s.verts = append(s.verts, m.VertexOf...)
		s.edges = append(s.edges, m.EdgeOf...)
	}
	s.live++
	r := &s.recs[i]
	*r = rec{minTS: m.MinTS, maxTS: m.MaxTS, key: k, sig: sig, wnext: s.wheel[w], snext: nilSlot}
	s.link(i)

	if r.wnext == nilSlot || m.MinTS < s.wmin[w] {
		s.wmin[w] = m.MinTS
	}
	s.wheel[w] = i

	if dedup {
		if s.sdir == nil {
			s.sdir, _ = newDir(len(s.dir))
		}
		d := &s.sdir[s.at(sig)]
		r.snext, *d = *d, i
	}
}

// link appends slot i to the join chain of its key.
func (s *store) link(i int32) {
	r := &s.recs[i]
	r.next, r.prev = nilSlot, i
	d := &s.dir[s.at(r.key)]
	if h := *d; h != nilSlot {
		tail := s.recs[h].prev
		r.prev = tail
		s.recs[tail].next = i
		s.recs[h].prev = i
	} else {
		*d = i
	}
}

// rehash doubles the two directories (or makes the first) and threads
// every record back on, each old chain in order, so records of one key
// keep theirs.
func (s *store) rehash() {
	old, oldSig := s.dir, s.sdir
	s.dir, s.dirShift = newDir(max(2*len(old), 2*minSlots))
	for _, i := range old {
		for i != nilSlot {
			next := s.recs[i].next
			s.link(i)
			i = next
		}
	}
	if oldSig == nil {
		return
	}
	s.sdir, _ = newDir(len(s.dir))
	for _, i := range oldSig {
		for i != nilSlot {
			r := &s.recs[i]
			d := &s.sdir[s.at(r.sig)]
			i, r.snext, *d = r.snext, *d, i
		}
	}
}

// remove unlinks slot i from its join chain and the dedup index and
// frees it. The wheel list is the caller's (expire is walking it).
func (s *store) remove(i int32) {
	r := &s.recs[i]
	d := &s.dir[s.at(r.key)]
	if *d == i {
		*d = r.next
	} else {
		s.recs[r.prev].next = r.next
	}
	if r.next != nilSlot {
		s.recs[r.next].prev = r.prev
	} else if *d != nilSlot {
		s.recs[*d].prev = r.prev // i was the last: the first names the new last
	}

	if s.sdir != nil {
		// A record stored while Dedup was off is on no chain.
		for p := &s.sdir[s.at(r.sig)]; *p != nilSlot; p = &s.recs[*p].snext {
			if *p == i {
				*p = r.snext
				break
			}
		}
	}

	r.prev, r.next = freeSlot, s.free
	s.free = i
	s.live--
}

// expire walks n wheel buckets from bucket number first and removes
// every record on them with MinTS < cutoff. A bucket whose minimum is
// not below the cutoff is skipped unread.
func (s *store) expire(first uint64, n int, cutoff int64) (evicted, scanned int) {
	for j := 0; j < n; j++ {
		w := (first + uint64(j)) % wheelBuckets
		if s.wheel[w] == nilSlot || s.wmin[w] >= cutoff {
			continue
		}
		kept, keptMin := nilSlot, int64(math.MaxInt64)
		for i := s.wheel[w]; i != nilSlot; {
			r := &s.recs[i]
			next := r.wnext
			scanned++
			if r.minTS < cutoff {
				s.remove(i)
				evicted++
			} else {
				r.wnext, kept = kept, i
				keptMin = min(keptMin, r.minTS)
			}
			i = next
		}
		s.wheel[w], s.wmin[w] = kept, keptMin
	}
	return evicted, scanned
}

// sparse reports whether under an eighth of the slab's slots are in
// use. A table that empties and refills every window — a lazy leaf
// whose vertices lapse and are enabled again — dips under a quarter
// and back; compacting it there would regrow the slab each window.
func (s *store) sparse() bool {
	return len(s.recs) >= minSlots && 8*s.live < len(s.recs)
}

// compact rebuilds the store at twice the size of what it holds: a slab
// only ever grows otherwise, and a node whose table peaked once (the
// dense half of a stream with a sparse half) would keep the peak for
// good. Every record is added afresh, each join chain in order, so
// records of one key keep theirs, and filed on t's wheel as of now.
// Tree.ExpireBefore calls it when a sweep leaves the slab sparse, which
// takes evictions worth seven times what is copied here.
func (s *store) compact(t *Tree) {
	old := *s
	s.reset(max(2*old.live, minSlots), old.sdir != nil)
	for _, i := range old.dir {
		for ; i != nilSlot; i = old.recs[i].next {
			r := &old.recs[i]
			s.add(r.key, r.sig, old.sdir != nil, t.wheelSlot(r.minTS), old.view(i))
		}
	}
}
