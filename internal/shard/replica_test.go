package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

func TestEdgeLogAppendTrimReplay(t *testing.T) {
	l := NewEdgeLog()
	mk := func(n int, ts0 int64) []stream.Edge {
		out := make([]stream.Edge, n)
		for i := range out {
			out[i] = stream.Edge{Src: "a", Dst: "b", Type: "T", TS: ts0 + int64(i)}
		}
		return out
	}
	l.Append(mk(3, 1), 0)  // seqs 0..2, ts 1..3
	l.Append(mk(2, 10), 3) // seqs 3..4, ts 10..11
	l.Append(mk(1, 20), 5) // seq 5, ts 20
	if got := l.MaxTS(); got != 20 {
		t.Fatalf("MaxTS = %d, want 20", got)
	}
	var seqs []uint64
	l.Replay(5, 2, func(se stream.Edge, seq uint64) bool {
		seqs = append(seqs, seq)
		return true
	})
	// seq < 5 and ts >= 2: seqs 1,2 (ts 2,3) and 3,4 (ts 10,11).
	if want := []uint64{1, 2, 3, 4}; fmt.Sprint(seqs) != fmt.Sprint(want) {
		t.Fatalf("Replay saw seqs %v, want %v", seqs, want)
	}
	if dropped := l.TrimBefore(4, 1); dropped != 0 {
		t.Fatalf("TrimBefore with keepSeq 1 dropped %d segments, want 0", dropped)
	}
	if dropped := l.TrimBefore(4, ^uint64(0)); dropped != 1 {
		t.Fatalf("TrimBefore dropped %d segments, want 1", dropped)
	}
	if got := l.Segments(); got != 2 {
		t.Fatalf("Segments = %d after trim, want 2", got)
	}
	seqs = seqs[:0]
	l.Replay(100, 0, func(se stream.Edge, seq uint64) bool {
		seqs = append(seqs, seq)
		return true
	})
	if want := []uint64{3, 4, 5}; fmt.Sprint(seqs) != fmt.Sprint(want) {
		t.Fatalf("post-trim Replay saw %v, want %v", seqs, want)
	}
}

// TestEdgeLogConcurrentReplay hammers the log with one appender (who
// also trims) and several replaying readers; under -race this pins the
// copy-on-write snapshot discipline.
func TestEdgeLogConcurrentReplay(t *testing.T) {
	l := NewEdgeLog()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				total := 0
				l.Replay(1<<60, 0, func(se stream.Edge, seq uint64) bool {
					if se.Type == "" {
						t.Error("reader observed a zeroed edge")
						return false
					}
					total++
					return true
				})
				_ = total
			}
		}()
	}
	seq := uint64(0)
	for i := 0; i < 2000; i++ {
		batch := []stream.Edge{{Src: "x", Dst: "y", Type: "T", TS: int64(i)}}
		l.Append(batch, seq)
		seq++
		if i%7 == 0 {
			l.TrimBefore(int64(i)-100, ^uint64(0))
		}
	}
	close(done)
	wg.Wait()
}

// TestTrimRespectsInflightRegistrationFloor pins the log-retention
// contract behind concurrent Register/Ingest: while a registration is
// in flight, the log may not trim past the window floor captured at
// the registration's stream position, however far the stream advances
// before the owning shard executes the backfill — otherwise the
// backfill would silently lose in-window edges a serial engine still
// matches.
func TestTrimRespectsInflightRegistrationFloor(t *testing.T) {
	r := New(Config{Shards: 1, Window: 10})
	old := stream.Edge{Src: "a", SrcLabel: "ip", Dst: "b", DstLabel: "ip", Type: "B", TS: 1}
	r.IngestBatch([]stream.Edge{old}) // no query needs B yet: log only

	// Pin a floor exactly as an in-flight registration does.
	r.ingestMu.Lock()
	r.floorToken++
	tok := r.floorToken
	r.floors[tok] = -1 << 62
	r.ingestMu.Unlock()

	hasOld := func() bool {
		found := false
		r.log.Replay(1<<60, -1<<62, func(se stream.Edge, _ uint64) bool {
			if se.TS == 1 {
				found = true
				return false
			}
			return true
		})
		return found
	}
	r.IngestBatch([]stream.Edge{{Src: "c", SrcLabel: "ip", Dst: "d", DstLabel: "ip", Type: "A", TS: 1000}})
	if !hasOld() {
		t.Fatal("log trimmed past an in-flight registration's floor")
	}
	// Release the floor: the next ingest may trim the expired segment.
	r.ingestMu.Lock()
	delete(r.floors, tok)
	r.ingestMu.Unlock()
	r.IngestBatch([]stream.Edge{{Src: "c", SrcLabel: "ip", Dst: "d", DstLabel: "ip", Type: "A", TS: 1001}})
	if hasOld() {
		t.Fatal("log kept an expired segment after the floor was released")
	}
	r.Close()
}

// partitionQueries returns three queries whose edge-type footprints
// partition {GRE,TCP} / {UDP,ICMP} / {IPv6,ESP} — pairwise disjoint,
// so with three shards every stream edge is stored at most once.
func partitionQueries() (map[string]*query.Graph, map[string]core.Strategy) {
	qs := map[string]*query.Graph{
		"p-gre-tcp":  query.NewPath(query.Wildcard, "GRE", "TCP"),
		"p-udp-icmp": query.NewPath("ip", "UDP", "ICMP"),
		"p-ipv6-esp": query.NewPath(query.Wildcard, "IPv6", "ESP"),
	}
	st := map[string]core.Strategy{
		"p-gre-tcp":  core.StrategySingleLazy,
		"p-udp-icmp": core.StrategyPath,
		"p-ipv6-esp": core.StrategySingle,
	}
	return qs, st
}

// TestPartitionedFootprintsReplicateOnce is the tentpole's acceptance
// gate: with shard-per-query ownership and pairwise-disjoint edge-type
// footprints, the total replicated edge count across shards stays
// within 1.1x of the input edge count (it was shards-x with full
// replicas), while the match multiset remains byte-identical to the
// serial MultiEngine.
func TestPartitionedFootprintsReplicateOnce(t *testing.T) {
	edges := testStream(2000)
	const window = 400
	queries, strategies := partitionQueries()

	// Serial reference.
	m := core.NewMulti(core.MultiConfig{Window: window})
	for _, name := range sortedNames(queries) {
		if err := m.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	for _, se := range edges {
		for _, nm := range m.ProcessEdge(se) {
			want = append(want, serialSig(m, nm))
		}
	}
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}

	for _, batch := range []int{1, 64} {
		r := New(Config{Shards: 3, Window: window})
		for _, name := range sortedNames(queries) {
			if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
				t.Fatal(err)
			}
		}
		var mu sync.Mutex
		var got []string
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Drain(func(mt Match) {
				mu.Lock()
				got = append(got, matchSig(mt))
				mu.Unlock()
			})
		}()
		for lo := 0; lo < len(edges); lo += batch {
			hi := lo + batch
			if hi > len(edges) {
				hi = len(edges)
			}
			r.IngestBatch(edges[lo:hi])
		}
		st := r.Stats() // pre-close snapshot exercises the lock-free gauges
		r.Close()
		<-done
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("batch=%d: %d matches, want %d", batch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d: multiset differs at %d:\n got %s\nwant %s", batch, i, got[i], want[i])
			}
		}

		st = r.Stats()
		var stored, routed int64
		for _, s := range st {
			if s.ReplicaTypes != 2 {
				t.Fatalf("batch=%d: shard %d filters %d types, want 2", batch, s.Shard, s.ReplicaTypes)
			}
			if s.ReplicaEdges > s.ReplicaStored {
				t.Fatalf("batch=%d: shard %d live %d > stored %d", batch, s.Shard, s.ReplicaEdges, s.ReplicaStored)
			}
			stored += s.ReplicaStored
			routed += s.EdgesRouted
		}
		// The acceptance bound: disjoint footprints => each edge stored
		// at most once across all shards (<= 1.1x input, vs 3x before).
		if limit := int64(float64(len(edges)) * 1.1); stored > limit {
			t.Fatalf("batch=%d: replicas stored %d edges total, want <= %d (1.1x of %d input)",
				batch, stored, limit, len(edges))
		}
		if stored == 0 {
			t.Fatalf("batch=%d: replicas stored nothing; gate is broken", batch)
		}
		// Gating must also have kept whole batches away from
		// uninterested shards (per-edge batches make this exact).
		if batch == 1 && routed >= int64(3*len(edges)) {
			t.Fatalf("batch=%d: routed %d edge deliveries, broadcast would be %d — gate never skipped",
				batch, routed, 3*len(edges))
		}
	}
}

// TestWildcardQueryForcesFullReplica pins the static-filter fallback: a
// query with a wildcard edge type cannot be filtered, so its shard
// must replicate every type (and report ReplicaTypes = -1).
func TestWildcardQueryForcesFullReplica(t *testing.T) {
	edges := testStream(400)
	r := New(Config{Shards: 2, Window: 400})
	wild := &query.Graph{
		Vertices: []query.Vertex{{Name: "a", Label: "ip"}, {Name: "b", Label: "ip"}, {Name: "c", Label: "ip"}},
		Edges:    []query.Edge{{Src: 0, Dst: 1, Type: "TCP"}, {Src: 1, Dst: 2, Type: query.Wildcard}},
	}
	if err := r.Register("wild", wild, core.Config{Strategy: core.StrategySingle}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("typed", query.NewPath("ip", "UDP", "ICMP"), core.Config{Strategy: core.StrategySingle}); err != nil {
		t.Fatal(err)
	}
	counted := make(chan int64, 1)
	go func() { counted <- r.Drain(nil) }()
	for _, se := range edges {
		r.Ingest(se)
	}
	r.Close()
	<-counted
	var sawWild bool
	for _, s := range r.Stats() {
		switch s.Queries {
		case 0:
			continue
		default:
		}
		if s.ReplicaTypes == -1 {
			sawWild = true
			if s.EdgesRouted != int64(len(edges)) {
				t.Fatalf("wildcard shard routed %d edges, want every one of %d", s.EdgesRouted, len(edges))
			}
			if s.ReplicaStored != int64(len(edges)) {
				t.Fatalf("wildcard shard stored %d edges, want %d", s.ReplicaStored, len(edges))
			}
		} else {
			if s.ReplicaTypes != 2 {
				t.Fatalf("typed shard filters %d types, want 2", s.ReplicaTypes)
			}
			if s.ReplicaStored >= int64(len(edges)) {
				t.Fatalf("typed shard stored %d of %d edges — filter inert", s.ReplicaStored, len(edges))
			}
		}
	}
	if !sawWild {
		t.Fatal("no shard reported a universal replica")
	}
}

// TestUnregisterTrimsReplica pins the narrow-and-trim path: removing
// the only query that needed a type drops that type's edges from the
// replica, and the remaining query keeps matching exactly.
func TestUnregisterTrimsReplica(t *testing.T) {
	edges := testStream(1200)
	const window = 1 << 40 // unwindowed in practice: trimming must come from unregister alone
	half := len(edges) / 2

	// Serial reference with the same mid-stream unregister schedule.
	m := core.NewMulti(core.MultiConfig{Window: window})
	for _, spec := range []struct {
		name string
		q    *query.Graph
	}{
		{"keep", query.NewPath(query.Wildcard, "GRE", "TCP")},
		{"drop", query.NewPath("ip", "UDP", "ICMP")},
	} {
		if err := m.Register(spec.name, spec.q, core.Config{Strategy: core.StrategySingleLazy}); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	for i, se := range edges {
		if i == half {
			m.Unregister("drop")
		}
		for _, nm := range m.ProcessEdge(se) {
			want = append(want, serialSig(m, nm))
		}
	}
	sort.Strings(want)

	r := New(Config{Shards: 1, Window: window})
	if err := r.Register("keep", query.NewPath(query.Wildcard, "GRE", "TCP"), core.Config{Strategy: core.StrategySingleLazy}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("drop", query.NewPath("ip", "UDP", "ICMP"), core.Config{Strategy: core.StrategySingleLazy}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drain(func(mt Match) {
			mu.Lock()
			got = append(got, matchSig(mt))
			mu.Unlock()
		})
	}()
	for _, se := range edges[:half] {
		r.Ingest(se)
	}
	// Ingest is asynchronous and the replica gauges are published by the
	// worker: wait for it to catch up before reading them. Unregistering
	// a name the worker does not hold is a no-op that replies in queue
	// order.
	caughtUp := make(chan error, 1)
	r.ingestMu.Lock()
	r.send(r.workers[0], message{kind: msgUnregister, name: "no-such-query", reply: caughtUp})
	r.ingestMu.Unlock()
	<-caughtUp
	before := r.Stats()[0]
	if before.ReplicaTypes != 4 {
		t.Fatalf("pre-unregister filter has %d types, want 4", before.ReplicaTypes)
	}
	r.Unregister("drop")
	after := r.Stats()[0]
	if after.ReplicaTypes != 2 {
		t.Fatalf("post-unregister filter has %d types, want 2", after.ReplicaTypes)
	}
	if after.ReplicaEdges >= before.ReplicaEdges {
		t.Fatalf("unregister trimmed nothing: live %d -> %d", before.ReplicaEdges, after.ReplicaEdges)
	}
	for _, se := range edges[half:] {
		r.Ingest(se)
	}
	r.Close()
	<-done
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("%d matches, serial reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("multiset differs at %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestRegisterBackfillMidStreamDifferential registers queries over
// types no existing query needed, mid-stream: the owning shard must
// backfill the in-window past from the shared edge log so the late
// query matches exactly what it would on a serial engine — including
// through the lazy strategies' retrospective repair, which is the path
// that actually reads the backfilled edges.
func TestRegisterBackfillMidStreamDifferential(t *testing.T) {
	edges := testStream(1600)
	const window = 500
	third := len(edges) / 3
	type regOp struct {
		at       int
		name     string
		strategy core.Strategy
	}
	ops := []regOp{
		{0, "p-gre-tcp", core.StrategySingleLazy},
		{third, "p-udp-icmp", core.StrategyPathLazy}, // UDP/ICMP unseen by any gate until here
		{2 * third, "p-ipv6-esp", core.StrategySingle},
	}
	queries, _ := partitionQueries()

	serial := func() []string {
		m := core.NewMulti(core.MultiConfig{Window: window})
		var sigs []string
		next := 0
		for i, se := range edges {
			for next < len(ops) && ops[next].at == i {
				if err := m.Register(ops[next].name, queries[ops[next].name], core.Config{Strategy: ops[next].strategy}); err != nil {
					t.Fatal(err)
				}
				next++
			}
			for _, nm := range m.ProcessEdge(se) {
				sigs = append(sigs, serialSig(m, nm))
			}
		}
		return sigs
	}
	want := serial()
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("no matches; differential is vacuous")
	}

	for _, shards := range []int{1, 2, 3} {
		r := New(Config{Shards: shards, Window: window})
		var mu sync.Mutex
		var got []string
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Drain(func(mt Match) {
				mu.Lock()
				got = append(got, matchSig(mt))
				mu.Unlock()
			})
		}()
		next := 0
		for i, se := range edges {
			for next < len(ops) && ops[next].at == i {
				if err := r.Register(ops[next].name, queries[ops[next].name], core.Config{Strategy: ops[next].strategy}); err != nil {
					t.Fatal(err)
				}
				next++
			}
			r.Ingest(se)
		}
		r.Close()
		<-done
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d matches, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: multiset differs at %d:\n got %s\nwant %s", shards, i, got[i], want[i])
			}
		}
	}
}

// TestReplicaRegisterUnregisterProperty is the quick-check property
// test: randomized register/unregister operations interleaved with
// randomized ingest batches must never lose or duplicate a match
// relative to a serial MultiEngine applying the identical schedule —
// replica backfill and trim included.
func TestReplicaRegisterUnregisterProperty(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		testReplicaPropertySeed(t, seed)
	}
}

func testReplicaPropertySeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	types := []string{"GRE", "TCP", "UDP", "ICMP", "IPv6", "ESP"}
	strategies := []core.Strategy{core.StrategySingle, core.StrategyPath, core.StrategySingleLazy}

	for trial := 0; trial < 6; trial++ {
		nEdges := 400 + rng.Intn(400)
		var edges []stream.Edge
		for i := 0; i < nEdges; i++ {
			s, d := rng.Intn(50), rng.Intn(50)
			if s == d {
				continue
			}
			edges = append(edges, stream.Edge{
				Src: fmt.Sprintf("n%d", s), SrcLabel: "ip",
				Dst: fmt.Sprintf("n%d", d), DstLabel: "ip",
				Type: types[rng.Intn(len(types))], TS: int64(i + 1),
			})
		}
		window := int64(80 + rng.Intn(200))

		// A schedule of operations keyed by stream position.
		type op struct {
			at         int
			register   bool
			name       string
			q          *query.Graph
			strategy   core.Strategy
			unregister string
		}
		var ops []op
		var live []string
		qdefs := make(map[string]*query.Graph)
		sdefs := make(map[string]core.Strategy)
		for i := 0; i < 8; i++ {
			at := rng.Intn(len(edges))
			if len(live) > 0 && rng.Intn(3) == 0 {
				victim := live[rng.Intn(len(live))]
				ops = append(ops, op{at: at, unregister: victim})
				for j, n := range live {
					if n == victim {
						live = append(live[:j], live[j+1:]...)
						break
					}
				}
				continue
			}
			name := fmt.Sprintf("q%d-%d", trial, i)
			t1 := types[rng.Intn(len(types))]
			t2 := types[rng.Intn(len(types))]
			q := query.NewPath(query.Wildcard, t1, t2)
			st := strategies[rng.Intn(len(strategies))]
			qdefs[name], sdefs[name] = q, st
			ops = append(ops, op{at: at, register: true, name: name, q: q, strategy: st})
			live = append(live, name)
		}
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })

		// Serial oracle.
		m := core.NewMulti(core.MultiConfig{Window: window})
		var want []string
		next := 0
		for i, se := range edges {
			for next < len(ops) && ops[next].at == i {
				o := ops[next]
				if o.register {
					if err := m.Register(o.name, o.q, core.Config{Strategy: o.strategy}); err != nil {
						t.Fatal(err)
					}
				} else {
					m.Unregister(o.unregister)
				}
				next++
			}
			for _, nm := range m.ProcessEdge(se) {
				want = append(want, serialSig(m, nm))
			}
		}
		sort.Strings(want)

		// Sharded runtime, identical schedule, random batch splits that
		// never straddle an op position.
		shards := 1 + rng.Intn(4)
		r := New(Config{Shards: shards, Window: window})
		var mu sync.Mutex
		var got []string
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Drain(func(mt Match) {
				mu.Lock()
				got = append(got, matchSig(mt))
				mu.Unlock()
			})
		}()
		next = 0
		for lo := 0; lo < len(edges); {
			for next < len(ops) && ops[next].at == lo {
				o := ops[next]
				if o.register {
					if err := r.Register(o.name, o.q, core.Config{Strategy: o.strategy}); err != nil {
						t.Fatal(err)
					}
				} else {
					r.Unregister(o.unregister)
				}
				next++
			}
			hi := lo + 1 + rng.Intn(60)
			if hi > len(edges) {
				hi = len(edges)
			}
			if next < len(ops) && ops[next].at < hi {
				hi = ops[next].at
			}
			if hi == lo {
				continue
			}
			r.IngestBatch(edges[lo:hi])
			lo = hi
		}
		r.Close()
		<-done
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("trial %d (shards=%d window=%d): %d matches, want %d", trial, shards, window, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: multiset differs at %d:\n got %s\nwant %s", trial, i, got[i], want[i])
			}
		}
	}
}
