package shard

import (
	"runtime"
	"strconv"
	"sync"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/query"
	"streamgraph/internal/refmatch"
)

// The sharded tier of the vertex-churn differential (see
// internal/core/churn_test.go): two filtered replicas over a stream
// that keeps recycling VertexIDs, with a GRE-only query registered and
// unregistered again and again mid-stream. Each registration backfills
// the window's GRE edges into a replica and each unregistration trims
// them out (TrimReplica), leaving vertices without an edge between
// sweeps — the one way a vertex is isolated outside ExpireBefore. The
// three standing queries must report exactly the never-recycling
// oracle's multiset; the churning query, whose matches across a
// registration boundary depend on the strategy, must report nothing
// the oracle does not hold and everything that lies wholly inside one
// of its registrations.
func TestVertexChurnSharded(t *testing.T) {
	edges, oracle, err := refmatch.ChurnWorkload(5)
	if err != nil {
		t.Fatal(err)
	}
	want := refmatch.ByQuery(oracle)
	noiseQ := query.NewPath(query.Wildcard, "GRE", "GRE")
	noise := refmatch.Run(map[string]*query.Graph{"noise": noiseQ}, edges, refmatch.ChurnWindow)
	queries := refmatch.ChurnQueries()
	strategies := map[string]core.Strategy{"path3": core.StrategySingleLazy, "path2": core.StrategyPathLazy, "fan": core.StrategySingle}
	distinct := make(map[string]bool)
	for _, e := range edges {
		distinct[e.Src], distinct[e.Dst] = true, true
	}

	const cycle, batch = 512, 32 // "noise" is registered at k*cycle and unregistered half a cycle later
	r := New(Config{Shards: 2, Window: refmatch.ChurnWindow})
	for _, name := range sortedNames(queries) {
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	var mu sync.Mutex
	got := make(map[string]map[string]int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drain(func(m Match) {
			var bindings, bound []string
			for _, b := range m.Bindings {
				bindings = append(bindings, refmatch.BindingKey(b.QueryVertex, b.DataVertex))
			}
			for _, e := range m.Edges {
				bound = append(bound, refmatch.EdgeKey(e.QueryEdge, e.Src, e.Dst, e.Type, e.TS))
			}
			mu.Lock()
			if got[m.Query] == nil {
				got[m.Query] = make(map[string]int)
			}
			got[m.Query][refmatch.Key(m.Query, bindings, bound)]++
			mu.Unlock()
		})
	}()

	type span struct{ from, to int } // "noise" is registered for edges [from, to)
	var spans []span
	for lo := 0; lo < len(edges); lo += batch {
		switch lo % cycle {
		case 0:
			if err := r.Register("noise", noiseQ, core.Config{Strategy: core.StrategySingleLazy}); err != nil {
				t.Fatalf("register noise at %d: %v", lo, err)
			}
			spans = append(spans, span{from: lo, to: len(edges)})
		case cycle / 2:
			r.Unregister("noise")
			spans[len(spans)-1].to = lo
		}
		hi := min(lo+batch, len(edges))
		if (lo/batch)%2 == 0 {
			r.IngestBatch(edges[lo:hi])
		} else {
			for _, se := range edges[lo:hi] {
				r.Ingest(se)
			}
		}
	}
	reg := r.Metrics()
	r.Close()
	<-done

	for _, name := range sortedNames(queries) {
		if d := refmatch.Diff(want[name], got[name]); d != "" {
			t.Errorf("%s differs from the never-recycling oracle:\n%s", name, d)
		}
	}
	// The churning query: sound against the oracle, complete for
	// the matches one registration saw from first edge to last.
	all, inside := make(map[string]int), make(map[string]int)
	for _, m := range noise {
		for _, sp := range spans {
			if m.Last >= sp.from && m.Last < sp.to {
				all[m.Key]++
				if m.First >= sp.from {
					inside[m.Key]++
				}
			}
		}
	}
	if len(inside) < 20 {
		t.Fatalf("only %d oracle matches lie inside a registration of the churning query; the check would be vacuous", len(inside))
	}
	for k, n := range got["noise"] {
		if n > all[k] {
			t.Errorf("noise reported %s %d times; the oracle holds it %d times while registered", k, n, all[k])
		}
	}
	for k, n := range inside {
		if got["noise"][k] < n {
			t.Errorf("noise reported %s %d times; the oracle completes it %d times inside one registration", k, got["noise"][k], n)
		}
	}

	// Every replica's vertex table tracked the window: the window is
	// under 32 ticks, so the sweep clock steps by one tick, and a worker
	// runs every message through the batch path, which sweeps before it
	// ingests. So a replica holds the window it cut at, one backfilled
	// window and at most one batch, each edge naming two vertices.
	samples := reg.Snapshot()
	for i := 0; i < r.NumShards(); i++ {
		slots := metricValue(t, samples, "sg_shard_replica_vertex_slots", "shard", strconv.Itoa(i))
		live := metricValue(t, samples, "sg_shard_replica_vertices", "shard", strconv.Itoa(i))
		if bound := int64(2*refmatch.ChurnLive + 2*batch); slots > bound || live > slots {
			t.Errorf("shard %d: %d live vertices in %d slots, want <= %d slots (the stream named %d hosts)", i, live, slots, bound, len(distinct))
		}
	}
}

// TestVertexChurnShardedHeapFlat: no table behind a Router is sized by
// the stream either. A router that ran a whole churn stream of ~70k
// host names retains, once closed, what one that ran the first quarter
// of it does: replicas and log hold a window, and no collector is fed.
// (The full-stream collector the router used to own grew by 5 MB
// between the two.)
func TestVertexChurnShardedHeapFlat(t *testing.T) {
	const n, batch = 96_000, 64
	edges := refmatch.Churn(11, n, 1<<30)
	stats := trained(edges[:2000])
	heapInUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// retained is what a closed router that ingested edges[:upTo] keeps
	// alive.
	retained := func(upTo int) uint64 {
		base := heapInUse()
		r := New(Config{Shards: 2, Window: refmatch.ChurnWindow})
		for name, q := range refmatch.ChurnQueries() {
			if err := r.Register(name, q, core.Config{Strategy: core.StrategySingleLazy, Stats: stats}); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		go func() { defer close(done); r.Drain(nil) }()
		for lo := 0; lo < upTo; lo += batch {
			r.IngestBatch(edges[lo : lo+batch])
		}
		r.Close()
		<-done
		held := heapInUse()
		runtime.KeepAlive(r)
		return held - min(held, base)
	}
	early, late := retained(n/4), retained(n)
	if late > early+1<<20 {
		t.Fatalf("a router retains %d bytes after %d edges and %d after %d", early, n/4, late, n)
	}
}
