package iso

import "streamgraph/internal/graph"

// vertexSet is a dense bitset over the graph's vertex ID space, used by
// the matcher for O(1) injectivity checks in the inner adjacency loops.
// Vertex IDs are dense slot indices that the graph recycles at window
// sweeps, so the ID space — and with it this set — is bounded by the
// peak number of live vertices, not by the names the stream has
// carried. The set is reused across searches: bind/unbind pairs are
// balanced, leaving it empty between searches (and so across sweeps),
// so no per-search clearing is needed.
type vertexSet struct {
	words []uint64
	size  int
}

func (s *vertexSet) add(v graph.VertexID) {
	w := int(v >> 6)
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	bit := uint64(1) << (v & 63)
	if s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.size++
	}
}

func (s *vertexSet) remove(v graph.VertexID) {
	w := int(v >> 6)
	if w >= len(s.words) {
		return
	}
	bit := uint64(1) << (v & 63)
	if s.words[w]&bit != 0 {
		s.words[w] &^= bit
		s.size--
	}
}

func (s *vertexSet) has(v graph.VertexID) bool {
	w := int(v >> 6)
	return w < len(s.words) && s.words[w]&(1<<(v&63)) != 0
}

// reset clears every bit, keeping the backing array. Only the defensive
// slow path in initState calls it; balanced searches never need it.
func (s *vertexSet) reset() {
	clear(s.words)
	s.size = 0
}
