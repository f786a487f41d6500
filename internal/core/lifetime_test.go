package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/refmatch"
	"streamgraph/internal/sjtree"
	"streamgraph/internal/stream"
)

// Match lifetimes: an engine writes the complete matches of one call into
// its result slab and truncates the slab when the next call starts, so
// that a dense query reuses the arrays it emits into instead of
// allocating two per match. These tests pin both halves of the contract —
// nothing is allocated to emit a match, and nothing touches an emitted
// match before the next call — and, with the slab poisoned on every
// reset, that no caller reads a match after it.

// ringEdges feeds TCP edges round a ring of hosts, one tick per edge.
// Against the 2-hop TCP-TCP query every edge completes a match with each
// in-window edge into its source and each out of its destination — two
// dozen per edge at a window of 200 — while hosts, buckets and live edges
// stay bounded, so that a warm engine has nothing left to allocate for.
type ringEdges struct {
	names []string
	i     int
	ts    int64
}

func newRingEdges(hosts int) *ringEdges {
	r := &ringEdges{names: make([]string, hosts)}
	for i := range r.names {
		r.names[i] = fmt.Sprintf("h%d", i)
	}
	return r
}

func (r *ringEdges) next() stream.Edge {
	r.ts++
	r.i++
	n := len(r.names)
	return stream.Edge{Src: r.names[r.i%n], SrcLabel: "ip", Dst: r.names[(r.i+1)%n], DstLabel: "ip", Type: "TCP", TS: r.ts}
}

func (r *ringEdges) fill(batch []stream.Edge) {
	for j := range batch {
		batch[j] = r.next()
	}
}

// TestEmitPathsAllocFree extends the allocation gates to edges that
// complete matches (the older gates deliberately never do): once warm,
// Engine.ProcessEdge, Engine.ProcessBatch and
// MultiEngine.ProcessBatchGrouped emit at least one match per edge and
// allocate nothing — root joins write into the result slab the previous
// call's matches were in, and the named rows are reused.
func TestEmitPathsAllocFree(t *testing.T) {
	q := query.NewPath("ip", "TCP", "TCP")
	const batchSize = 64

	t.Run("Engine.ProcessEdge", func(t *testing.T) {
		eng, err := New(q, Config{Strategy: StrategySingle, Window: 200, Leaves: [][]int{{0}, {1}}})
		if err != nil {
			t.Fatal(err)
		}
		ring := newRingEdges(16)
		for i := 0; i < 4096; i++ {
			eng.ProcessEdge(ring.next())
		}
		avg := mallocsPerRun(2000, func() {
			if len(eng.ProcessEdge(ring.next())) == 0 {
				t.Fatal("an edge completed no match: the gate would be vacuous")
			}
		})
		if avg != 0 {
			t.Errorf("ProcessEdge allocates %d allocs/op while emitting, want 0", avg)
		}
		if gets, fresh := eng.Tree().Pool().Stats(); fresh*20 > gets {
			t.Errorf("pool handed out %d matches, %d of them fresh: emitted matches are not coming back", gets, fresh)
		}
	})

	t.Run("Engine.ProcessBatch", func(t *testing.T) {
		eng, err := New(q, Config{Strategy: StrategySingle, Window: 200, Leaves: [][]int{{0}, {1}}})
		if err != nil {
			t.Fatal(err)
		}
		ring := newRingEdges(16)
		batch := make([]stream.Edge, batchSize)
		for r := 0; r < 64; r++ {
			ring.fill(batch)
			eng.ProcessBatch(batch)
		}
		avg := mallocsPerRun(200, func() {
			ring.fill(batch)
			for i, ms := range eng.ProcessBatch(batch) {
				if len(ms) == 0 {
					t.Fatalf("batch edge %d completed no match", i)
				}
			}
		})
		if avg != 0 {
			t.Errorf("ProcessBatch allocates %d allocs/op while emitting, want 0", avg)
		}
	})

	t.Run("MultiEngine.ProcessBatchGrouped", func(t *testing.T) {
		if prev := runtime.GOMAXPROCS(0); prev < 2 {
			runtime.GOMAXPROCS(2)
			defer runtime.GOMAXPROCS(prev)
		}
		m := NewMulti(MultiConfig{Window: 200})
		if err := m.Register("eager", q, Config{Leaves: [][]int{{0}, {1}}}); err != nil {
			t.Fatal(err)
		}
		if err := m.Register("lazy", q, Config{Strategy: StrategySingleLazy, Leaves: [][]int{{0}, {1}}}); err != nil {
			t.Fatal(err)
		}
		ring := newRingEdges(16)
		batch := make([]stream.Edge, batchSize)
		for r := 0; r < 64; r++ {
			ring.fill(batch)
			m.ProcessBatchGrouped(batch)
		}
		avg := mallocsPerRun(200, func() {
			ring.fill(batch)
			for i, nms := range m.ProcessBatchGrouped(batch) {
				if len(nms) == 0 {
					t.Fatalf("batch edge %d completed no match", i)
				}
			}
		})
		if avg != 0 {
			t.Errorf("ProcessBatchGrouped allocates %d allocs/op while emitting, want 0", avg)
		}
	})
}

// snapshotMatches deep-copies results (nil stays nil) for a later
// reflect.DeepEqual against the live ones.
func snapshotMatches(ms []iso.Match) []iso.Match {
	out := ms[:0:0]
	for _, m := range ms {
		out = append(out, m.Clone())
	}
	return out
}

// TestResultsValidUntilNextCall pins the lifetime from the caller's
// side: what call N returned reads the same, bit for bit, right up to the
// start of call N+1 — through reads of the engine and through a forced
// window sweep, which expires the tree and marks the result slab to be
// cut back — for every result-returning entry point in turn. Only the
// next such call ends it: its root joins must write where the matches of
// call N were.
func TestResultsValidUntilNextCall(t *testing.T) {
	q := query.NewPath("ip", "TCP", "TCP")
	eng, err := New(q, Config{Strategy: StrategySingleLazy, Window: 200, Leaves: [][]int{{0}, {1}}})
	if err != nil {
		t.Fatal(err)
	}
	ring := newRingEdges(16)
	batch := make([]stream.Edge, 8)
	var held, want []iso.Match // call N's results, live and as copied
	check := func(step int, when string) {
		t.Helper()
		if !reflect.DeepEqual(held, want) {
			t.Fatalf("step %d: results changed %s:\n got %v\nwant %v", step, when, held, want)
		}
	}
	emitted, reused := 0, 0
	for step := 0; step < 600; step++ {
		if step > 0 {
			_ = eng.Stats()
			for _, m := range held {
				_ = eng.Explain(m)
			}
			check(step, "while the engine was only read")
			if step%5 == 0 {
				eng.host.ForceEvict()
				check(step, "across a window sweep")
			}
		}
		before := make(map[*graph.VertexID]bool, len(held))
		for _, m := range held {
			before[&m.VertexOf[0]] = true
		}
		var rows [][]iso.Match
		switch step % 3 {
		case 0:
			rows = [][]iso.Match{eng.ProcessEdge(ring.next())}
		case 1:
			ring.fill(batch)
			rows = eng.ProcessBatch(batch)
		case 2:
			rows = [][]iso.Match{eng.FlushPending()}
		}
		held = held[:0]
		for _, ms := range rows {
			held = append(held, ms...)
		}
		want = snapshotMatches(held)
		emitted += len(held)
		for _, m := range held {
			if before[&m.VertexOf[0]] {
				reused++
			}
		}
	}
	if emitted == 0 || reused == 0 {
		t.Fatalf("%d matches emitted, %d on arrays of the call before: the contract was not exercised", emitted, reused)
	}
}

// poolAliases drains the engine's match pool and reports an array that is
// in it twice. (A stored partial match cannot share one: the tree keeps
// its own copy in a slab the pool never sees.)
func poolAliases(eng *Engine) error {
	seen := make(map[any]int) // keyed by the arrays' first elements
	pool := eng.Tree().Pool()
	for i := 0; pool.Len() > 0; i++ {
		m := pool.Get()
		for _, p := range []any{&m.VertexOf[0], &m.EdgeOf[0]} {
			if prev, dup := seen[p]; dup {
				return fmt.Errorf("array %p is free-list entry %d and %d from the top", p, prev, i)
			}
			seen[p] = i
		}
	}
	return nil
}

// TestInterleavedCallsMatchOracle drives one engine by a seeded mix of
// ProcessEdge, ProcessBatch and FlushPending, on the churn stream where
// joins, emits, expiry and ID reuse all happen at once. Every
// result-returning call ends the results of the one before, whichever
// kind either was; if a call reused what a live match still held, or
// handed one array to the pool twice, bindings would change under a live
// match. The resolved match multiset must equal the never-recycling
// oracle's, and afterwards no array may be in the pool twice. CI runs it
// under -race.
func TestInterleavedCallsMatchOracle(t *testing.T) {
	edges, stats, want := churnWorkload(t, 1)
	for name, q := range refmatch.ChurnQueries() {
		for _, s := range churnStrategies {
			label := fmt.Sprintf("%s/%v", name, s)
			eng, err := New(q, Config{Strategy: s, Window: refmatch.ChurnWindow, Stats: stats})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			rng := rand.New(rand.NewSource(int64(len(label)) + int64(s)))
			got := make(map[string]int)
			record := func(ms []iso.Match) {
				for _, m := range ms {
					got[refmatch.MatchKey(name, q, eng.Graph(), m)]++
				}
			}
			var calls [3]int
			for lo := 0; lo < len(edges); {
				kind := rng.Intn(3)
				calls[kind]++
				switch kind {
				case 0:
					record(eng.ProcessEdge(edges[lo]))
					lo++
				case 1:
					hi := min(lo+1+rng.Intn(24), len(edges))
					for _, ms := range eng.ProcessBatch(edges[lo:hi]) {
						record(ms)
					}
					lo = hi
				case 2:
					record(eng.FlushPending())
				}
			}
			record(eng.FlushPending())
			if calls[0] == 0 || calls[1] == 0 || calls[2] == 0 {
				t.Fatalf("%s: call mix %v leaves a kind out", label, calls)
			}
			if d := refmatch.Diff(want[name], got); d != "" {
				t.Fatalf("%s: match multiset differs from the oracle:\n%s", label, d)
			}
			// The last call's results are still the caller's; end
			// their lifetime so the pool holds everything it ever will.
			eng.FlushPending()
			if err := poolAliases(eng); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}

// TestRetroPathAllocFree gates Lazy Search's retrospective repair. The
// stream walks a ring of hosts, each step first a UDP edge out of the
// next host and then the TCP edge into it; against TCP-UDP under
// SingleLazy the UDP edge meets no enabled vertex and is skipped, and the
// TCP edge that follows enables its endpoint, whose retrospective search
// finds the UDP edge and completes the match. The ring is long enough
// that every host has been swept by the time the walk comes round, so
// this happens at every step for ever — through a persistent candidate
// callback, the leaf's vertex list the tree built once, a truncated
// queue and dedup records chained through reused arrays: nothing per
// search, per edge or per batch.
func TestRetroPathAllocFree(t *testing.T) {
	q := query.NewPath("ip", "TCP", "UDP")
	cfg := Config{Strategy: StrategySingleLazy, Window: 200, Leaves: [][]int{{0}, {1}}}
	const hosts, batchSize = 1024, 64
	walk := func() func() stream.Edge {
		ring := newRingEdges(hosts)
		n := 0
		return func() stream.Edge {
			n++
			ring.ts++
			name := func(k int) string { return ring.names[(n/2+k)%hosts] }
			if n%2 == 0 {
				return stream.Edge{Src: name(1), SrcLabel: "ip", Dst: name(2), DstLabel: "ip", Type: "UDP", TS: ring.ts}
			}
			return stream.Edge{Src: name(0), SrcLabel: "ip", Dst: name(1), DstLabel: "ip", Type: "TCP", TS: ring.ts}
		}
	}

	retro := func(t *testing.T, stats func() Stats, step func() int) {
		t.Helper()
		for i := 0; i < 6*hosts/batchSize; i++ {
			step() // three laps: every name interned, every slab at its size
		}
		before := stats()
		edges := 0
		avg := mallocsPerRun(200, func() { edges += step() })
		after := stats()
		searches, matches := after.RetroSearches-before.RetroSearches, after.RetroMatches-before.RetroMatches
		if searches < int64(edges/2) || matches < int64(edges/2)-1 || after.CompleteMatches-before.CompleteMatches < int64(edges/2)-1 {
			t.Fatalf("%d edges ran %d retrospective searches finding %d matches, %d matches completed: the gate would be vacuous",
				edges, searches, matches, after.CompleteMatches-before.CompleteMatches)
		}
		if avg != 0 {
			t.Errorf("%d allocs/op with %.1f retrospective searches per edge, want 0", avg, float64(searches)/float64(edges))
		}
	}

	t.Run("Engine.ProcessEdge", func(t *testing.T) {
		eng, err := New(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		next := walk()
		retro(t, eng.Stats, func() int {
			for i := 0; i < batchSize; i++ {
				eng.ProcessEdge(next())
			}
			return batchSize
		})
	})

	t.Run("MultiEngine.ProcessBatchGrouped", func(t *testing.T) {
		m := NewMulti(MultiConfig{Window: cfg.Window})
		if err := m.Register("lazy", q, cfg); err != nil {
			t.Fatal(err)
		}
		next := walk()
		batch := make([]stream.Edge, batchSize)
		retro(t, m.QueryEngine("lazy").Stats, func() int {
			for j := range batch {
				batch[j] = next()
			}
			m.ProcessBatchGrouped(batch)
			return batchSize
		})
	})
}

// TestFilteredBatchAllocFree gates the batch path of a filtered replica:
// under a replica filter that rejects half of every batch,
// MultiEngine.ProcessBatchGrouped ingests the admitted edges straight out
// of the caller's slice — no copy of them, no fresh index list — and
// allocates nothing, and the rows stay aligned with the batch: the
// admitted edges come in pairs that chain, the second of each completes
// a match, and a rejected edge completes none.
func TestFilteredBatchAllocFree(t *testing.T) {
	m := NewMulti(MultiConfig{Window: 200})
	if err := m.Register("tcp", query.NewPath("ip", "TCP", "TCP"), Config{Leaves: [][]int{{0}, {1}}}); err != nil {
		t.Fatal(err)
	}
	m.SetReplicaFilter([]string{"TCP"}, false)
	ring := newRingEdges(1024) // longer than the window: a lap meets nothing of the last
	const batchSize = 64
	batch := make([]stream.Edge, batchSize)
	step := func() {
		ring.fill(batch)
		for j := range batch {
			if j%4 >= 2 {
				batch[j].Type = "UDP" // outside the footprint
			}
		}
		for j, nms := range m.ProcessBatchGrouped(batch) {
			if (j%4 == 1) != (len(nms) > 0) {
				t.Fatalf("batch edge %d (%s) completed %d matches", j, batch[j].Type, len(nms))
			}
		}
	}
	for r := 0; r < 64; r++ {
		step()
	}
	stored := m.EdgesStored()
	avg := mallocsPerRun(200, step)
	if got := m.EdgesStored() - stored; got != 201*batchSize/2 {
		t.Fatalf("%d edges admitted over 201 batches, want half of each: %d", got, 201*batchSize/2)
	}
	if avg != 0 {
		t.Errorf("ProcessBatchGrouped allocates %d allocs/op under a rejecting replica filter, want 0", avg)
	}
}

// TestResultSlabLifetimePoisoned reruns the lifetime and differential
// nets with the result slab poisoned: sjtree.ResetHook scribbles over
// every match a Reset ends, its header and its bindings in both slabs.
// A caller that kept a row, a header or a binding slice past its call
// then reads the scribble and misses its oracle, so every net must stay
// green. The first subtest shows the poison lands: a match kept past its
// call reads the scribble, a Clone of it does not.
func TestResultSlabLifetimePoisoned(t *testing.T) {
	resets := 0
	prev := sjtree.ResetHook
	sjtree.ResetHook = func(r *sjtree.Results) {
		resets++
		sjtree.Scribble(r)
	}
	t.Cleanup(func() { sjtree.ResetHook = prev })

	t.Run("kept match is poisoned, cloned match is not", func(t *testing.T) {
		eng, err := New(query.NewPath("ip", "TCP", "TCP"), Config{Strategy: StrategySingle, Window: 200, Leaves: [][]int{{0}, {1}}})
		if err != nil {
			t.Fatal(err)
		}
		ring := newRingEdges(16)
		var ms []iso.Match
		for len(ms) == 0 {
			ms = eng.ProcessEdge(ring.next())
		}
		kept, clone := ms[0], ms[0].Clone()
		// An edge outside the footprint completes nothing, so nothing is
		// written over the scribble.
		udp := ring.next()
		udp.Type = "UDP"
		eng.ProcessEdge(udp)
		if ms[0].MinTS != -1 || kept.VertexOf[0] != graph.NoVertex-1 || kept.EdgeOf[0] != iso.NoEdge-1 {
			t.Fatalf("the match kept past its call reads header %+v, bindings %v %v: not scribbled", ms[0], kept.VertexOf, kept.EdgeOf)
		}
		if clone.VertexOf[0] == graph.NoVertex-1 || clone.EdgeOf[0] == iso.NoEdge-1 {
			t.Fatalf("the clone reads %v %v: scribbled with the slab", clone.VertexOf, clone.EdgeOf)
		}
	})
	t.Run("ResultsValidUntilNextCall", TestResultsValidUntilNextCall)
	t.Run("InterleavedCallsMatchOracle", TestInterleavedCallsMatchOracle)
	t.Run("DifferentialStrategies", TestDifferentialStrategies)
	if resets == 0 {
		t.Fatal("no Reset ran the hook: the nets ran unpoisoned")
	}
}
