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
	m := NewMulti(MultiConfig{Window: 200, EvictEvery: 16})
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
	m := NewMulti(MultiConfig{Window: 200, EvictEvery: 16})
	if err := m.Register("eager", q, Config{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("lazy", q, Config{Strategy: StrategySingleLazy}); err != nil {
		t.Fatal(err)
	}
	eng, err := New(q, Config{Strategy: StrategySingleLazy, Window: 200, EvictEvery: 16, Leaves: [][]int{{0}, {1}}})
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

// TestResolveMatchAllocs gates match resolution at its floor: one
// sized allocation for the bindings, one for the edges.
func TestResolveMatchAllocs(t *testing.T) {
	m := NewMulti(MultiConfig{})
	q := query.NewPath("ip", "GRE", "TCP", "UDP")
	if err := m.Register("q", q, Config{}); err != nil {
		t.Fatal(err)
	}
	var nms []NamedMatch
	for i, tp := range []string{"GRE", "TCP", "UDP"} {
		nms = m.ProcessEdge(stream.Edge{
			Src: fmt.Sprintf("h%d", i), SrcLabel: "ip",
			Dst: fmt.Sprintf("h%d", i+1), DstLabel: "ip",
			Type: tp, TS: int64(i + 1),
		})
	}
	if len(nms) != 1 {
		t.Fatalf("got %d matches, want 1", len(nms))
	}
	var bindings []PortableBinding
	var edges []PortableMatchEdge
	avg := testing.AllocsPerRun(1000, func() {
		bindings, edges = m.ResolveMatch(nms[0])
	})
	if len(bindings) != 4 || len(edges) != 3 {
		t.Fatalf("resolved %d bindings and %d edges, want 4 and 3", len(bindings), len(edges))
	}
	if avg > 2 {
		t.Errorf("ResolveMatch allocates %v allocs/op, want <= 2", avg)
	}
}
