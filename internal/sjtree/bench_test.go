package sjtree

import (
	"math/rand"
	"testing"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
)

// benchLeafMatch builds a leaf match for the 2-hop path query binding
// query edge qe to data edge e with the given endpoint vertices.
func benchLeafMatch(q *query.Graph, qe int, e graph.EdgeID, s, d graph.VertexID, ts int64) iso.Match {
	m := iso.NewMatch(q)
	m.EdgeOf[qe] = e
	m.VertexOf[q.Edges[qe].Src] = s
	m.VertexOf[q.Edges[qe].Dst] = d
	m.MinTS, m.MaxTS = ts, ts
	return m
}

// BenchmarkTreeInsertStore measures the pure store path of Algorithm 2:
// every insert keys a match table bucket and stores, with no sibling
// matches to probe (the sibling table is empty). This is the per-edge
// floor every leaf match pays.
func BenchmarkTreeInsertStore(b *testing.B) {
	for _, dedup := range []struct {
		name string
		on   bool
	}{{"dedup=off", false}, {"dedup=on", true}} {
		b.Run(dedup.name, func(b *testing.B) {
			q := query.NewPath(query.Wildcard, "a", "b")
			tr, err := Build(q, [][]int{{0}, {1}}, 1<<40)
			if err != nil {
				b.Fatal(err)
			}
			tr.Dedup = dedup.on
			ms := make([]iso.Match, b.N)
			for i := range ms {
				// Distinct cut bindings (vertex v1) spread inserts over
				// many buckets; distinct edges make every match unique.
				ms[i] = benchLeafMatch(q, 0, graph.EdgeID(i), graph.VertexID(2*i), graph.VertexID(2*i+1), int64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Insert(0, ms[i], nil, nil)
			}
		})
	}
}

// BenchmarkTreeInsertHotBucket measures repeated inserts that share one
// cut binding: the bucket and every auxiliary structure already exist,
// so steady state should not allocate at all.
func BenchmarkTreeInsertHotBucket(b *testing.B) {
	q := query.NewPath(query.Wildcard, "a", "b")
	tr, err := Build(q, [][]int{{0}, {1}}, 1<<40)
	if err != nil {
		b.Fatal(err)
	}
	ms := make([]iso.Match, b.N)
	for i := range ms {
		ms[i] = benchLeafMatch(q, 0, graph.EdgeID(i), 1, 2, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(0, ms[i], nil, nil)
	}
}

// BenchmarkTreeInsertJoin measures the probe-and-join path: each insert
// finds one sibling match on the shared cut vertex, joins, and emits at
// the root.
func BenchmarkTreeInsertJoin(b *testing.B) {
	q := query.NewPath(query.Wildcard, "a", "b")
	tr, err := Build(q, [][]int{{0}, {1}}, 1<<40)
	if err != nil {
		b.Fatal(err)
	}
	ms := make([]iso.Match, b.N)
	for i := range ms {
		cut := graph.VertexID(3 * i)
		// One stored sibling (leaf 1) per cut vertex; every timed insert
		// at leaf 0 joins with exactly one of them.
		tr.Insert(1, benchLeafMatch(q, 1, graph.EdgeID(2*i), cut, graph.VertexID(3*i+1), int64(i)), nil, nil)
		ms[i] = benchLeafMatch(q, 0, graph.EdgeID(2*i+1), graph.VertexID(3*i+2), cut, int64(i))
	}
	emitted := 0
	emit := func(iso.Match) { emitted++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(0, ms[i], emit, nil)
	}
	b.StopTimer()
	if emitted != b.N {
		b.Fatalf("emitted %d of %d expected joins", emitted, b.N)
	}
}

// BenchmarkExpireNoOp measures ExpireBefore when nothing is expired —
// the common steady-state eviction tick, which must not rescan the
// stored matches.
func BenchmarkExpireNoOp(b *testing.B) {
	q := query.NewPath(query.Wildcard, "a", "b")
	tr, err := Build(q, [][]int{{0}, {1}}, 1<<40)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		tr.Insert(0, benchLeafMatch(q, 0, graph.EdgeID(i), graph.VertexID(2*i), graph.VertexID(2*i+1), 100+int64(i)), nil, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.ExpireBefore(50) != 0 {
			b.Fatal("unexpected eviction")
		}
	}
}

// BenchmarkTreeSteadyState is the store's share of an eager, expiry-heavy
// engine row (bench/'s nf_rare_eager) without the engine: a 4-edge path
// under the 1-edge decomposition whose two frequent leaves take 1.2
// inserts per stream edge between them, keyed by Zipf-drawn hosts (a few
// hub buckets as long as the window, a long tail of buckets that live and
// die with one match), no sibling ever there to join, window 2000 and a
// sweep every 256 edges. One op is one stream edge. Candidates are drawn
// from the tree's pool and filled the way Matcher.Retain would, so the
// arrays cycle as they do under an engine.
func BenchmarkTreeSteadyState(b *testing.B) {
	const window, sweepEvery, hosts = 2000, 256, 100_000
	q := query.NewPath(query.Wildcard, "AH", "ESP", "TCP", "TCP")
	tr, err := Build(q, [][]int{{0}, {1}, {2}, {3}}, window)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 8, hosts-1)
	ends := make([][2]graph.VertexID, 1<<16)
	for i := range ends {
		s := graph.VertexID(zipf.Uint64())
		ends[i] = [2]graph.VertexID{s, (s + 1 + graph.VertexID(rng.Intn(hosts-1))) % hosts}
	}
	insert := func(qe, i int) {
		m := tr.Pool().Get()
		for j := range m.VertexOf {
			m.VertexOf[j] = graph.NoVertex
		}
		for j := range m.EdgeOf {
			m.EdgeOf[j] = iso.NoEdge
		}
		e := ends[i%len(ends)]
		m.VertexOf[q.Edges[qe].Src], m.VertexOf[q.Edges[qe].Dst] = e[0], e[1]
		m.EdgeOf[qe] = graph.EdgeID(i % (2 * window))
		m.MinTS, m.MaxTS = int64(i), int64(i)
		tr.Insert(qe, m, nil, nil)
	}
	edge := func(i int) {
		insert(2, i)
		if i%5 == 0 {
			insert(3, i)
		}
		if i%sweepEvery == 0 {
			tr.ExpireBefore(int64(i) - window + 1)
		}
	}
	i := 0
	for ; i < 3*window; i++ {
		edge(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		edge(i)
		i++
	}
	b.StopTimer()
	st := tr.Stats()
	b.ReportMetric(float64(st.ExpireScanned)/float64(st.Evicted), "scanned/evicted")
}
