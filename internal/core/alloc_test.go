package core

import (
	"fmt"
	"runtime"
	"testing"

	"streamgraph/internal/metrics"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// TestProcessEdgeInstrumentedAllocFree extends the PR 3 allocation
// gates (see internal/sjtree/alloc_test.go) to the observability
// layer: with per-edge latency sampling attached on EVERY edge, the
// steady-state ProcessEdge path must still allocate nothing. The
// workload inserts a leaf partial match per edge (real tree and pool
// traffic) but never completes a match, so any allocation measured
// would come from the engine or the metrics recording itself.
func TestProcessEdgeInstrumentedAllocFree(t *testing.T) {
	m := NewMulti(MultiConfig{Window: 200})
	// GRE→TCP path over a TCP-only stream: every edge feeds the TCP
	// leaf's match table, window expiry recycles through the pool, and
	// no complete match is ever emitted.
	q := query.NewPath("ip", "GRE", "TCP")
	if err := m.Register("probe", q, Config{Strategy: StrategyPath}); err != nil {
		t.Fatal(err)
	}

	const hosts = 16
	names := make([]string, hosts)
	for i := range names {
		names[i] = fmt.Sprintf("h%d", i)
	}
	edge := func(i int, ts int64) stream.Edge {
		return stream.Edge{
			Src: names[i%hosts], SrcLabel: "ip",
			Dst: names[(i+1)%hosts], DstLabel: "ip",
			Type: "TCP", TS: ts,
		}
	}

	hist := &metrics.AtomicHistogram{}
	m.SetEdgeLatency(hist, 1) // time every single edge — worst case

	// Warm to steady state: interners, buckets, pool, eviction heap.
	ts := int64(0)
	for i := 0; i < 4096; i++ {
		ts++
		m.ProcessEdge(edge(i, ts))
	}

	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		ts++
		if got := m.ProcessEdge(edge(i, ts)); got != nil {
			t.Fatalf("unexpected match at edge %d", i)
		}
		i++
	})
	if avg != 0 {
		t.Errorf("instrumented ProcessEdge allocates %v allocs/op, want 0", avg)
	}
	if hist.Count() == 0 {
		t.Fatal("latency histogram recorded no samples")
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin:
// the batch gates run on at least two Ps, where a per-batch goroutine or
// search pool would show. Integer division, as in the testing package,
// absorbs a stray runtime allocation.
func mallocsPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestProcessBatchAllocFree extends the allocation gate to the batch
// path on its DEFAULT configuration, on at least two Ps: once the
// batchArena has grown to the workload's steady-state demand, a batch
// must allocate nothing — the materialized-edge buffer and the per-edge
// result rows come out of the arena, and no goroutine, throwaway matcher
// or task list is made per batch. Two drivers: two queries under one
// MultiEngine (where a nested search pool per query once cost 42
// allocations per edge unseen), and a standalone Engine.ProcessBatch
// (which started a pool per batch until the pool was deleted). Same
// no-complete-match workload as the serial gate (real leaf and pool
// traffic, no emitted matches), batch size 64.
func TestProcessBatchAllocFree(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	q := query.NewPath("ip", "GRE", "TCP")
	m := NewMulti(MultiConfig{Window: 200})
	if err := m.Register("eager", q, Config{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("lazy", q, Config{Strategy: StrategySingleLazy}); err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, Config{Strategy: StrategySingleLazy, Window: 200, Leaves: [][]int{{0}, {1}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name    string
		matches func(batch []stream.Edge) int
	}{
		{"MultiEngine.ProcessBatchGrouped", func(batch []stream.Edge) (n int) {
			for _, ms := range m.ProcessBatchGrouped(batch) {
				n += len(ms)
			}
			return n
		}},
		{"Engine.ProcessBatch", func(batch []stream.Edge) (n int) {
			for _, ms := range eng.ProcessBatch(batch) {
				n += len(ms)
			}
			return n
		}},
	} {
		const hosts = 16
		const batchSize = 64
		names := make([]string, hosts)
		for i := range names {
			names[i] = fmt.Sprintf("h%d", i)
		}
		ts := int64(0)
		i := 0
		batch := make([]stream.Edge, batchSize)
		fill := func() {
			for j := range batch {
				ts++
				batch[j] = stream.Edge{
					Src: names[i%hosts], SrcLabel: "ip",
					Dst: names[(i+1)%hosts], DstLabel: "ip",
					Type: "TCP", TS: ts,
				}
				i++
			}
		}

		// Warm to steady state: interners, buckets, pool, eviction heap,
		// and the arena's per-kind demand.
		for r := 0; r < 64; r++ {
			fill()
			in.matches(batch)
		}

		avg := mallocsPerRun(200, func() {
			fill()
			if in.matches(batch) != 0 {
				t.Fatalf("%s: unexpected match before edge %d", in.name, i)
			}
		})
		if avg != 0 {
			t.Errorf("%s allocates %v allocs/op on the default config, want 0", in.name, avg)
		}
	}
}

// resolveFixture is a MultiEngine and the two matches of a three-edge
// path query one batch completed: h0>h1>h2>h3, then h0>h1>h2>h4.
func resolveFixture(t testing.TB) (*MultiEngine, []NamedMatch) {
	m := NewMulti(MultiConfig{})
	if err := m.Register("q", query.NewPath("ip", "GRE", "TCP", "UDP"), Config{}); err != nil {
		t.Fatal(err)
	}
	var batch []stream.Edge
	for i, e := range [][3]string{{"h0", "h1", "GRE"}, {"h1", "h2", "TCP"}, {"h2", "h3", "UDP"}, {"h2", "h4", "UDP"}} {
		batch = append(batch, stream.Edge{Src: e[0], SrcLabel: "ip", Dst: e[1], DstLabel: "ip", Type: e[2], TS: int64(i + 1)})
	}
	nms := m.ProcessBatch(batch)
	if len(nms) != 2 {
		t.Fatalf("got %d matches, want 2", len(nms))
	}
	return m, nms
}

// TestResolveMatchAllocs gates match resolution at its floor: after one
// warm-up call has grown the engine's two buffers, resolving allocates
// nothing.
func TestResolveMatchAllocs(t *testing.T) {
	m, nms := resolveFixture(t)
	var bindings []PortableBinding
	var edges []PortableMatchEdge
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		bindings, edges = m.ResolveMatch(nms[i%2])
		i++
	})
	if len(bindings) != 4 || len(edges) != 3 {
		t.Fatalf("resolved %d bindings and %d edges, want 4 and 3", len(bindings), len(edges))
	}
	if avg != 0 {
		t.Errorf("ResolveMatch allocates %v allocs/op, want 0", avg)
	}
}

// TestResolveMatchReusesBuffers pins ResolveMatch's lifetime: what it
// returns is a view of the engine's buffers, overwritten by its next
// call, and capacity-clipped, so a caller appending to it gets an array
// of its own and the engine's buffers are untouched.
func TestResolveMatchReusesBuffers(t *testing.T) {
	m, nms := resolveFixture(t)
	last := func(edges []PortableMatchEdge) string { return edges[len(edges)-1].Dst }
	b1, e1 := m.ResolveMatch(nms[0])
	if last(e1) != "h3" {
		t.Fatalf("first match ends at %s, want h3", last(e1))
	}
	if cap(b1) != len(b1) || cap(e1) != len(e1) {
		t.Fatalf("views not capacity-clipped: bindings %d/%d, edges %d/%d", len(b1), cap(b1), len(e1), cap(e1))
	}
	b2, e2 := m.ResolveMatch(nms[1])
	if last(e2) != "h4" || last(e1) != "h4" || &b1[0] != &b2[0] {
		t.Fatalf("second call did not resolve into the first call's buffers: first view ends at %s, second at %s", last(e1), last(e2))
	}

	// A caller's append reallocates instead of writing past the view.
	grown := append(e2, PortableMatchEdge{Dst: "caller"})
	grownB := append(b2, PortableBinding{DataVertex: "caller"})
	if &grown[0] == &e2[0] || &grownB[0] == &b2[0] {
		t.Fatal("append to a view wrote into the engine's buffers")
	}
	b3, e3 := m.ResolveMatch(nms[0])
	if &b3[0] != &b1[0] || &e3[0] != &e1[0] {
		t.Fatal("ResolveMatch stopped reusing its buffers after a caller's append")
	}
	if last(e3) != "h3" || len(e3) != 3 || len(b3) != 4 || grown[3].Dst != "caller" || last(grown[:3]) != "h4" {
		t.Fatalf("caller's copy and engine's buffers interfere: engine %v, caller %v", e3, grown)
	}
}

// BenchmarkResolveMatch is the resolve layer alone: one match of a
// three-edge path query resolved to names per op, alternating between
// two matches of one batch.
func BenchmarkResolveMatch(b *testing.B) {
	m, nms := resolveFixture(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		m.ResolveMatch(nms[i%2])
	}
}
