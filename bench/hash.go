package main

import (
	"sort"

	"streamgraph/internal/core"
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/shard"
)

// A match is identified, in every topology, by a 64-bit hash of the
// query name, its bindings (query vertex name -> data vertex name) and
// the timestamp bound to each query edge. Bindings and edges are folded
// commutatively, so the three forms a match arrives in (an iso.Match
// over a live graph, a resolved core match, a shard.Match) hash alike
// whatever order they list their parts in.

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func bindingHash(queryVertex, dataVertex uint64) uint64 {
	return mix64(queryVertex*0x9e3779b97f4a7c15 ^ dataVertex)
}

func edgeHash(queryEdge int, ts int64) uint64 {
	return mix64(uint64(queryEdge+1)*0xc2b2ae3d27d4eb4f + uint64(ts))
}

func matchHash(queryName uint64, parts uint64) uint64 { return mix64(queryName ^ parts) }

// queryHasher hashes the iso.Match form of one query's matches against
// the graph the match lives in; the query-side strings are hashed once.
type queryHasher struct {
	name     uint64
	vertices []uint64
}

func newQueryHasher(name string, q *query.Graph) queryHasher {
	h := queryHasher{name: hashString(name), vertices: make([]uint64, len(q.Vertices))}
	for i, v := range q.Vertices {
		h.vertices[i] = hashString(v.Name)
	}
	return h
}

func (h queryHasher) hash(g *graph.Graph, m iso.Match) uint64 {
	var parts uint64
	for qv, dv := range m.VertexOf {
		if dv == graph.NoVertex {
			continue
		}
		parts += bindingHash(h.vertices[qv], hashString(g.VertexName(dv)))
	}
	for qe, eid := range m.EdgeOf {
		if de, ok := g.Edge(eid); ok {
			parts += edgeHash(qe, de.TS)
		}
	}
	return matchHash(h.name, parts)
}

func hashResolved(queryName string, bindings []core.PortableBinding, edges []core.PortableMatchEdge) uint64 {
	var parts uint64
	for _, b := range bindings {
		parts += bindingHash(hashString(b.QueryVertex), hashString(b.DataVertex))
	}
	for _, e := range edges {
		parts += edgeHash(e.QueryEdge, e.TS)
	}
	return matchHash(hashString(queryName), parts)
}

func hashShardMatch(m shard.Match) uint64 {
	var parts uint64
	for _, b := range m.Bindings {
		parts += bindingHash(hashString(b.QueryVertex), hashString(b.DataVertex))
	}
	for _, e := range m.Edges {
		parts += edgeHash(e.QueryEdge, e.TS)
	}
	return matchHash(hashString(m.Query), parts)
}

// multisetDiff counts the oracle matches that were not delivered plus
// the delivered matches the oracle does not hold. Equal count, sum and
// xor settle the common case without sorting; otherwise got is sorted
// in place and want, whose order the oracle relies on, is copied.
func multisetDiff(want, got []uint64) int64 {
	if len(want) == len(got) {
		var ws, wx, gs, gx uint64
		for _, h := range want {
			ws += h
			wx ^= h
		}
		for _, h := range got {
			gs += h
			gx ^= h
		}
		if ws == gs && wx == gx {
			return 0
		}
	}
	want = append([]uint64(nil), want...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	var diff int64
	i, j := 0, 0
	for i < len(want) && j < len(got) {
		switch {
		case want[i] == got[j]:
			i++
			j++
		case want[i] < got[j]:
			diff++
			i++
		default:
			diff++
			j++
		}
	}
	return diff + int64(len(want)-i) + int64(len(got)-j)
}
