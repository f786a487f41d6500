// Package sketch provides bounded-memory synopses of the graph stream:
// a Count-Min frequency sketch and an approximate drop-in replacement
// for the exact statistics collector that estimates the 1-edge and
// 2-edge-path distributions of Choudhury et al. (EDBT 2015, Section 5)
// in memory independent of the number of stream vertices.
//
// The paper's exact Collector keeps one incident-type counter per data
// vertex, so its footprint grows with the vertex set (2.5M vertices for
// the CAIDA trace). Graph sketches are the paper's cited escape hatch
// ("gsketch", Zhao et al., PVLDB 2011, discussed in Sections 2.2 and 7):
// replace the per-vertex state with a fixed-size sketch and accept a
// small, one-sided estimation error. Query decomposition only needs the
// *relative order* of primitive selectivities, which survives the
// approximation on realistically skewed streams (see the package tests).
package sketch

import (
	"fmt"
	"math"
)

// CountMin is a Count-Min frequency sketch over uint64 keys with
// optional conservative update. Estimates never undercount as long as
// all deltas are non-negative; with conservative update the expected
// overcount shrinks substantially on skewed streams.
type CountMin struct {
	width int
	depth int
	rows  [][]int64
	salts []uint64
	total int64

	// Conservative enables conservative update: an increment raises each
	// row cell only as far as needed to make the new point estimate
	// correct. Only meaningful while all deltas are positive.
	Conservative bool
}

// NewCountMin builds a sketch with the given geometry. Width is the
// number of counters per row (larger = smaller overcount); depth is the
// number of independent rows (larger = smaller failure probability).
// The seed makes hash salts reproducible.
func NewCountMin(width, depth int, seed int64) *CountMin {
	if width < 1 {
		width = 1
	}
	if depth < 1 {
		depth = 1
	}
	s := &CountMin{width: width, depth: depth}
	s.rows = make([][]int64, depth)
	flat := make([]int64, width*depth)
	for i := range s.rows {
		s.rows[i], flat = flat[:width], flat[width:]
	}
	s.salts = make([]uint64, depth)
	state := uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	for i := range s.salts {
		state = splitmix64(state)
		s.salts[i] = state
	}
	return s
}

// NewCountMinWithError builds a sketch sized for the classic (ε, δ)
// guarantee: estimates exceed the true count by more than ε·N with
// probability at most δ, where N is the total of all inserted deltas.
func NewCountMinWithError(epsilon, delta float64, seed int64) (*CountMin, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return nil, fmt.Errorf("sketch: epsilon %v out of (0,1)", epsilon)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("sketch: delta %v out of (0,1)", delta)
	}
	width := int(math.Ceil(math.E / epsilon))
	depth := int(math.Ceil(math.Log(1 / delta)))
	return NewCountMin(width, depth, seed), nil
}

// splitmix64 is the finalizer of the SplitMix64 generator: a fast,
// well-mixed 64-bit permutation.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Hash64 hashes an arbitrary string to a sketch key (FNV-1a folded
// through splitmix64 for avalanche).
func Hash64(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return splitmix64(h)
}

// Combine mixes two keys into one (used to key composite identities such
// as (vertex, direction-type) without string formatting).
func Combine(a, b uint64) uint64 { return splitmix64(a ^ (b * 0x9E3779B97F4A7C15)) }

func (s *CountMin) cell(row int, key uint64) int {
	return int(splitmix64(key^s.salts[row]) % uint64(s.width))
}

// Add folds delta occurrences of key into the sketch. Negative deltas
// are applied to every row directly (conservative update does not apply
// and subsequent estimates may undercount); they exist for callers that
// maintain complementary sketches.
func (s *CountMin) Add(key uint64, delta int64) {
	s.total += delta
	if delta <= 0 || !s.Conservative {
		for r := 0; r < s.depth; r++ {
			s.rows[r][s.cell(r, key)] += delta
		}
		return
	}
	target := s.Estimate(key) + delta
	for r := 0; r < s.depth; r++ {
		c := &s.rows[r][s.cell(r, key)]
		if *c < target {
			*c = target
		}
	}
}

// Estimate returns the point estimate for key: the minimum over rows.
func (s *CountMin) Estimate(key uint64) int64 {
	min := s.rows[0][s.cell(0, key)]
	for r := 1; r < s.depth; r++ {
		if v := s.rows[r][s.cell(r, key)]; v < min {
			min = v
		}
	}
	return min
}

// Total returns the sum of all deltas folded in.
func (s *CountMin) Total() int64 { return s.total }

// Width returns the number of counters per row.
func (s *CountMin) Width() int { return s.width }

// Depth returns the number of rows.
func (s *CountMin) Depth() int { return s.depth }

// MemoryBytes reports the approximate footprint of the counter arrays.
func (s *CountMin) MemoryBytes() int { return s.width * s.depth * 8 }

// Reset zeroes every counter.
func (s *CountMin) Reset() {
	for _, row := range s.rows {
		for i := range row {
			row[i] = 0
		}
	}
	s.total = 0
}

// Merge adds the counters of other into s. The sketches must share
// geometry and seed (verified); merging conservative-updated sketches
// remains an upper bound but can be looser than re-inserting the stream.
func (s *CountMin) Merge(other *CountMin) error {
	if s.width != other.width || s.depth != other.depth {
		return fmt.Errorf("sketch: geometry mismatch %dx%d vs %dx%d",
			s.depth, s.width, other.depth, other.width)
	}
	for i, salt := range s.salts {
		if salt != other.salts[i] {
			return fmt.Errorf("sketch: seed mismatch (row %d)", i)
		}
	}
	for r := range s.rows {
		for i := range s.rows[r] {
			s.rows[r][i] += other.rows[r][i]
		}
	}
	s.total += other.total
	return nil
}
