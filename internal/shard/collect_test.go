package shard

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/datagen"
	"streamgraph/internal/dshard"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/sjtree"
	"streamgraph/internal/stream"
)

// hopQueries are six 2-hop wildcard paths over consecutive Netflow
// protocols, in registration order: the first pairs the two most
// frequent edge types and dominates the estimated cost of the rest.
func hopQueries() (names []string, queries map[string]*query.Graph) {
	rot := []string{"TCP", "UDP", "ICMP", "IPv6", "GRE", "ESP", "AH"}
	queries = make(map[string]*query.Graph)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("q%02d-%s-%s", i, rot[i], rot[i+1])
		names = append(names, name)
		queries[name] = query.NewPath(query.Wildcard, rot[i], rot[i+1])
	}
	return names, queries
}

func trained(edges []stream.Edge) *selectivity.Collector {
	c := selectivity.NewCollector()
	c.AddAll(edges)
	return c
}

// layout returns the names each slot owns, in registration order.
func layout(r *Router) map[int][]string {
	out := make(map[int][]string)
	for _, name := range r.Registered() {
		slot := ownerSlot(r, name)
		out[slot] = append(out[slot], name)
	}
	return out
}

// TestPlacementByEstimatedCost pins the placement policy: Register,
// pickTarget and Rebalance order slots by (estimated load, owned
// queries, slot id) through slotOrder, the estimate comes from the
// statistics Register decomposes against, and with nothing to estimate
// from the policy is the fewest-queries rule.
func TestPlacementByEstimatedCost(t *testing.T) {
	edges := datagen.Netflow(datagen.NetflowConfig{Seed: 5, Edges: 20000, Hosts: 2000})
	stats := trained(edges)
	names, queries := hopQueries()
	cfg := core.Config{Strategy: core.StrategySingleLazy, Stats: stats}

	drained := func(r *Router) {
		done := make(chan struct{})
		go func() { defer close(done); r.Drain(nil) }()
		t.Cleanup(func() { r.Close(); <-done })
	}
	register := func(r *Router, cfg core.Config, names ...string) {
		t.Helper()
		for _, name := range names {
			if err := r.Register(name, queries[name], cfg); err != nil {
				t.Fatalf("register %s: %v", name, err)
			}
		}
	}

	t.Run("skewed statistics isolate the hot query", func(t *testing.T) {
		r := New(Config{Shards: 2, Window: 400})
		drained(r)
		register(r, cfg, names...)
		costs := make([]float64, len(names))
		rest := 0.0
		for i, name := range names {
			leaves, _, _, err := core.Decompose(queries[name], cfg.Strategy, stats)
			if err != nil {
				t.Fatal(err)
			}
			costs[i] = estimateCost(stats, queries[name], leaves)
			if i > 0 {
				rest += costs[i]
			}
		}
		if costs[0] <= rest {
			t.Fatalf("stream is not skewed enough for the test: cost[0] %.3f <= rest %.3f", costs[0], rest)
		}
		got := layout(r)
		if len(got[0]) != 1 || got[0][0] != names[0] || len(got[1]) != 5 {
			t.Fatalf("layout %v, want %s alone on slot 0", got, names[0])
		}
		st := r.Stats()
		if st[0].Load != costs[0] || st[1].Load != rest {
			t.Errorf("Stats loads = %v / %v, want %v / %v", st[0].Load, st[1].Load, costs[0], rest)
		}
		// An evacuation targets the slot the next Register would pick.
		if to := r.pickTarget(r.workers[0]); to != 1 {
			t.Errorf("pickTarget(slot 0) = %d, want 1", to)
		}
		if to := r.pickTarget(r.workers[1]); to != 0 {
			t.Errorf("pickTarget(slot 1) = %d, want 0", to)
		}
		// Register's layout is one Rebalance leaves alone: the only move
		// off the hot slot would make a hotter one.
		if moved, err := r.Rebalance(); err != nil || moved != 0 {
			t.Fatalf("Rebalance on Register's layout = (%d, %v), want (0, nil)", moved, err)
		}
		// Piled onto one slot, Rebalance finds the same split again: one
		// move, the hot query, to the empty slot.
		if err := r.Migrate(names[0], 0, 1); err != nil {
			t.Fatal(err)
		}
		if moved, err := r.Rebalance(); err != nil || moved != 1 {
			t.Fatalf("Rebalance of the pile = (%d, %v), want (1, nil)", moved, err)
		}
		if got := layout(r); len(got[0]) != 1 || got[0][0] != names[0] {
			t.Fatalf("layout after Rebalance %v, want %s alone on slot 0", got, names[0])
		}
	})

	t.Run("register and pickTarget agree", func(t *testing.T) {
		r := New(Config{Shards: 3, Window: 400})
		drained(r)
		for _, name := range names {
			r.mu.Lock()
			slots, _ := r.slotOrder()
			r.mu.Unlock()
			want := r.pickTarget(nil)
			if want != slots[0].id {
				t.Fatalf("pickTarget(nil) = %d, slotOrder says %d", want, slots[0].id)
			}
			register(r, cfg, name)
			if got := ownerSlot(r, name); got != want {
				t.Fatalf("%s registered on slot %d, pickTarget said %d", name, got, want)
			}
		}
	})

	t.Run("cold collector is round-robin", func(t *testing.T) {
		r := New(Config{Shards: 3, Window: 400})
		drained(r)
		register(r, core.Config{Strategy: core.StrategySingleLazy}, names...)
		for i, name := range names {
			if got := ownerSlot(r, name); got != i%3 {
				t.Errorf("%s on slot %d, want %d", name, got, i%3)
			}
		}
		for _, st := range r.Stats() {
			if st.Load != 0 {
				t.Errorf("slot %d load %v with nothing to estimate from, want 0", st.Shard, st.Load)
			}
		}
	})

	// The ROADMAP leftover "a query registered cold is placed by count
	// and Rebalance does not refresh it": registered before any edge,
	// the six queries are dealt out three and three at load 0; once the
	// skewed stream fills the window, Rebalance re-estimates them and
	// finds the split that statistics at registration would have.
	t.Run("rebalance refreshes cold estimates", func(t *testing.T) {
		r := New(Config{Shards: 2, Window: 20000})
		drained(r)
		register(r, core.Config{Strategy: core.StrategySingleLazy}, names...)
		if got := layout(r); len(got[0]) != 3 || len(got[1]) != 3 {
			t.Fatalf("cold layout %v, want three queries a slot", got)
		}
		for lo := 0; lo < len(edges); lo += 512 {
			r.IngestBatch(edges[lo:min(lo+512, len(edges))])
		}
		for _, st := range r.Stats() {
			if st.Load != 0 {
				t.Fatalf("slot %d load %v before any Rebalance, want the registration's 0", st.Shard, st.Load)
			}
		}
		moved, err := r.Rebalance()
		if err != nil || moved == 0 {
			t.Fatalf("Rebalance = (%d, %v), want moves by the refreshed load", moved, err)
		}
		got := layout(r)
		hot := ownerSlot(r, names[0])
		if len(got[hot]) != 1 || len(got[1-hot]) != 5 {
			t.Fatalf("layout after Rebalance %v, want %s alone on its slot", got, names[0])
		}
		st := r.Stats()
		if st[hot].Load <= st[1-hot].Load || st[1-hot].Load <= 0 {
			t.Fatalf("loads after Rebalance: %v on the hot slot, %v on the other; want both estimated and the hot one larger", st[hot].Load, st[1-hot].Load)
		}
		// A wildcard-typed query weighs what every edge costs, not 0.
		wild := query.NewPath(query.Wildcard, query.Wildcard)
		if err := r.Register("wild", wild, core.Config{Strategy: core.StrategySingleLazy}); err != nil {
			t.Fatal(err)
		}
		if got, want := r.cost["wild"].cost, 1.0; got != want {
			t.Fatalf("a one-edge wildcard query costs %v per edge, want %v", got, want)
		}
	})

	t.Run("equal costs rebalance to spread one", func(t *testing.T) {
		r := New(Config{Shards: 3, Window: 400})
		drained(r)
		clones := []string{"a", "b", "c", "d", "e"}
		for i, name := range clones {
			queries[name] = queries[names[0]]
			register(r, cfg, name)
			if got := ownerSlot(r, name); got != i%3 {
				t.Errorf("clone %s on slot %d, want %d", name, got, i%3)
			}
		}
		for _, name := range clones {
			if from := ownerSlot(r, name); from != 0 {
				if err := r.Migrate(name, from, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		moved, err := r.Rebalance()
		if err != nil || moved != 3 { // 5/0/0 → 4/1/0 → 3/1/1 → 2/2/1
			t.Fatalf("Rebalance = (%d, %v), want (3, nil)", moved, err)
		}
		counts := []int{0, 0, 0}
		for _, name := range clones {
			counts[ownerSlot(r, name)]++
		}
		sort.Ints(counts)
		if counts[2]-counts[0] > 1 {
			t.Fatalf("owned counts %v after Rebalance, want spread <= 1", counts)
		}
		if again, err := r.Rebalance(); err != nil || again != 0 {
			t.Fatalf("second Rebalance = (%d, %v), want (0, nil)", again, err)
		}
	})
}

// denseStream and denseWindow give the hop queries a few matches per
// edge, so a 512-edge batch fills several collection blocks.
const denseWindow = 600

func denseStream() []stream.Edge {
	return datagen.Netflow(datagen.NetflowConfig{Seed: 9, Edges: 4096, Hosts: 150})
}

// slotReference runs the given queries on one MultiEngine over the
// whole stream in the given batches — the schedule a full-replica shard
// worker runs — and returns the match signatures in emission order.
func slotReference(t *testing.T, edges []stream.Edge, batch int, names []string, queries map[string]*query.Graph) []string {
	t.Helper()
	m := core.NewMulti(core.MultiConfig{Window: denseWindow})
	for _, name := range names {
		if err := m.Register(name, queries[name], core.Config{Strategy: core.StrategySingle}); err != nil {
			t.Fatal(err)
		}
	}
	var sigs []string
	for lo := 0; lo < len(edges); lo += batch {
		for _, named := range m.ProcessBatchGrouped(edges[lo:min(lo+batch, len(edges))]) {
			for _, nm := range named {
				sigs = append(sigs, serialSig(m, nm))
			}
		}
	}
	return sigs
}

// TestDeliverBlocks pins the collection path: matches travel in blocks
// of at most blockSize, every match arrives exactly once and in its
// slot's emission order on every topology, a stalled consumer bounds
// the runtime in matches, and the durable checkpoint barrier waits for
// the callback of a block's last match.
func TestDeliverBlocks(t *testing.T) {
	edges := denseStream()
	names, queries := hopQueries()
	const batch = 512
	ecfg := core.Config{Strategy: core.StrategySingle}
	all := slotReference(t, edges, batch, names, queries)
	if len(all) < 8*blockSize {
		t.Fatalf("only %d matches; the stream does not fill blocks", len(all))
	}
	sortedAll := append([]string(nil), all...)
	sort.Strings(sortedAll)

	start := func(t *testing.T, r *Router) {
		t.Helper()
		for _, name := range names {
			if err := r.Register(name, queries[name], ecfg); err != nil {
				t.Fatalf("register %s: %v", name, err)
			}
		}
	}
	ingest := func(r *Router, edges []stream.Edge) {
		for lo := 0; lo < len(edges); lo += batch {
			r.IngestBatch(edges[lo:min(lo+batch, len(edges))])
		}
	}
	// checkSlots compares what each slot delivered, in order, with a
	// reference engine holding exactly that slot's queries.
	checkSlots := func(t *testing.T, r *Router, bySlot map[int][]string) {
		t.Helper()
		total := 0
		for slot, owned := range layout(r) {
			want := slotReference(t, edges, batch, owned, queries)
			if !equalStrings(bySlot[slot], want) {
				t.Errorf("slot %d delivered %d matches, reference has %d (or the order differs)", slot, len(bySlot[slot]), len(want))
			}
			total += len(want)
		}
		if total != len(all) {
			t.Errorf("slot references hold %d matches, the full reference %d", total, len(all))
		}
	}

	t.Run("local", func(t *testing.T) {
		r := New(Config{Shards: 2, Window: denseWindow, FullReplicas: true})
		start(t, r)
		bySlot := make(map[int][]string)
		full, blocks := 0, 0
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Read the blocks themselves, as Drain does.
			for b := range r.out {
				block := b.matches
				blocks++
				if len(block) == 0 || len(block) > blockSize {
					t.Errorf("block of %d matches, want 1..%d", len(block), blockSize)
				}
				if len(block) == blockSize {
					full++
				}
				for _, m := range block {
					if m.Shard != block[0].Shard {
						t.Errorf("block mixes slots %d and %d", block[0].Shard, m.Shard)
					}
					if cap(m.Bindings) != len(m.Bindings) || cap(m.Edges) != len(m.Edges) {
						t.Errorf("match windows not capacity-clipped: bindings %d/%d edges %d/%d",
							len(m.Bindings), cap(m.Bindings), len(m.Edges), cap(m.Edges))
					}
					bySlot[m.Shard] = append(bySlot[m.Shard], matchSig(m))
				}
				r.release(len(block))
				r.consume(b)
			}
		}()
		ingest(r, edges)
		r.Close()
		<-done
		if full == 0 {
			t.Errorf("no full block among %d: no batch was cut", blocks)
		}
		checkSlots(t, r, bySlot)
		if e, c := r.emitted.Load(), r.consumed.Load(); e != int64(len(all)) || c != e {
			t.Errorf("emitted %d consumed %d, want %d", e, c, len(all))
		}
	})

	t.Run("remote loopback", func(t *testing.T) {
		addr, _ := startRemoteWorker(t)
		r := New(Config{Remotes: []string{addr, addr}, Window: denseWindow, FullReplicas: true})
		start(t, r)
		bySlot := make(map[int][]string)
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Drain(func(m Match) { bySlot[m.Shard] = append(bySlot[m.Shard], matchSig(m)) })
		}()
		ingest(r, edges)
		r.Close()
		<-done
		checkSlots(t, r, bySlot)
	})

	t.Run("ordered", func(t *testing.T) {
		r := New(Config{Shards: 2, Window: denseWindow, Ordered: true})
		start(t, r)
		var got []string
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Drain(func(m Match) { got = append(got, matchSig(m)) })
		}()
		ingest(r, edges)
		r.Close()
		<-done
		if !equalStrings(got, all) {
			t.Errorf("ordered delivery: %d matches, reference %d (or the order differs)", len(got), len(all))
		}
	})

	t.Run("close mid-stream", func(t *testing.T) {
		half := edges[:len(edges)/2]
		want := slotReference(t, half, batch, names, queries)
		sort.Strings(want)
		r := New(Config{Shards: 2, Window: denseWindow, FullReplicas: true, QueueLen: 2, OutLen: 1})
		start(t, r)
		var got []string
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Drain(func(m Match) { got = append(got, matchSig(m)) })
		}()
		ingest(r, half)
		r.Close() // the queues are still full, the budget is one match
		<-done
		sort.Strings(got)
		if !equalStrings(got, want) {
			t.Errorf("close mid-stream: %d matches, reference %d", len(got), len(want))
		}
	})

	t.Run("stalled consumer bounds the runtime", func(t *testing.T) {
		const outLen, shards = 512, 2
		r := New(Config{Shards: shards, Window: denseWindow, FullReplicas: true, QueueLen: 2, OutLen: outLen})
		start(t, r)
		release := make(chan struct{})
		counted := make(chan int64, 1)
		go func() {
			first := true
			counted <- r.Drain(func(Match) {
				if first {
					first = false
					<-release // stall inside the first callback
				}
			})
		}()
		fed := make(chan struct{})
		go func() { defer close(fed); ingest(r, edges) }()
		// The budget, one block in each slot's hands and the block whose
		// first callback is stalled.
		const bound = outLen + (shards+1)*blockSize
		still, last := 0, int64(-1)
		for deadline := time.Now().Add(10 * time.Second); still < 50 && time.Now().Before(deadline); {
			if e := r.emitted.Load(); e == last {
				still++
			} else {
				still, last = 0, e
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case <-fed:
			t.Fatal("ingestion finished against a stalled consumer: nothing backpressured")
		default:
		}
		samples := r.Metrics().Snapshot()
		depth, capacity := metricValue(t, samples, "sg_router_out_depth"), metricValue(t, samples, "sg_router_out_cap")
		if last != depth || depth > bound || capacity != bound {
			t.Errorf("stalled with %d matches emitted: out_depth %d out_cap %d, want depth = emitted <= cap = %d", last, depth, capacity, bound)
		}
		if last <= outLen-blockSize {
			t.Errorf("stalled after only %d matches; the budget alone holds %d", last, outLen)
		}
		close(release)
		<-fed
		r.Close()
		if got := <-counted; got != int64(len(all)) {
			t.Errorf("drained %d matches after the stall, want %d", got, len(all))
		}
	})

	t.Run("durable barrier waits for the block's last callback", func(t *testing.T) {
		r, _, err := Open(Config{Shards: 1, Window: denseWindow, DataDir: t.TempDir(), CheckpointEvery: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		start(t, r)
		const small = 128 // edges whose matches fit one block
		first := slotReference(t, edges[:small], small, names, queries)
		if len(first) < 2 || len(first) > blockSize {
			t.Fatalf("first batch has %d matches; want one block of several", len(first))
		}
		atLast := make(chan struct{})
		release := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			n := 0
			r.Drain(func(Match) {
				if n++; n == len(first) {
					close(atLast)
					<-release
				}
			})
		}()
		r.IngestBatch(edges[:small])
		<-atLast // every callback of the block but the last has returned
		round := make(chan struct{})
		go func() {
			defer close(round)
			r.ingestMu.Lock()
			r.checkpointRound()
			r.ingestMu.Unlock()
		}()
		select {
		case <-round:
			t.Fatal("checkpoint round committed while the block's last callback was still running")
		case <-time.After(50 * time.Millisecond):
		}
		if c := r.consumed.Load(); c != 0 {
			t.Errorf("consumed = %d inside the block's last callback, want 0", c)
		}
		close(release)
		<-round
		if c := r.consumed.Load(); c != int64(len(first)) {
			t.Errorf("consumed = %d after the round, want %d", c, len(first))
		}
		r.Close()
		<-done
	})
}

// primedWorker returns an unstarted router's local worker whose engine
// has just processed a batch, with the batch's matches (several blocks'
// worth) in w.pend. Nothing consumes what the worker delivers until the
// caller starts a Drain.
func primedWorker(t *testing.T, cfg Config) *worker {
	t.Helper()
	cfg.Shards, cfg.Window, cfg.FullReplicas = 1, denseWindow, true
	r := newRouter(cfg)
	w := r.workers[0]
	names, queries := hopQueries()
	for i, name := range names {
		// The router pins leaves before a query reaches a worker's engine.
		err := w.slot.Register(dshard.SlotRegister{
			Name: name, Query: queries[name], Rank: i, Universal: true,
			Config: core.Config{Strategy: core.StrategySingle, Leaves: [][]int{{0}, {1}}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	edges := denseStream()
	cut := len(edges) - 1024
	w.slot.Eng.ProcessBatchGrouped(edges[:cut])
	for i, named := range w.slot.Eng.ProcessBatchGrouped(edges[cut:]) {
		for _, nm := range named {
			w.pend = append(w.pend, pendingMatch{seq: uint64(cut + i), nm: nm})
		}
	}
	if len(w.pend) <= 2*blockSize {
		t.Fatalf("batch produced %d matches, want more than %d", len(w.pend), 2*blockSize)
	}
	return w
}

// mallocsPerRun is core's helper of the same name: AllocsPerRun without
// the GOMAXPROCS(1) pin, so the consumer goroutine keeps running.
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

// TestCollectAllocsPerBlock gates the local collection path at its
// steady state: with a consuming Drain, resolving and delivering blocks
// allocates nothing — the blocks come back through the free list, and
// resolution, the emitted counters, the channel send and the per-query
// telemetry all ride on them. Against a consumer that never returns a
// block the path degrades to fresh blocks, four allocations each,
// without waiting for one.
func TestCollectAllocsPerBlock(t *testing.T) {
	t.Run("consuming Drain", func(t *testing.T) {
		w := primedWorker(t, Config{})
		done := make(chan struct{})
		go func() { defer close(done); w.r.Drain(nil) }()
		defer func() { close(w.r.out); <-done }()
		blocks := (len(w.pend) + blockSize - 1) / blockSize
		for i := 0; i < 50; i++ {
			w.emitPending() // as many blocks as are ever in flight at once
		}
		got := mallocsPerRun(200, w.emitPending)
		t.Logf("%d matches, %d blocks, %d allocations, %d blocks in the free list", len(w.pend), blocks, got, len(w.r.free))
		if got != 0 {
			t.Errorf("emitting %d matches in %d blocks allocates %d times at steady state, want 0", len(w.pend), blocks, got)
		}
	})

	t.Run("stalled consumer", func(t *testing.T) {
		// A budget that never binds and nobody receiving: every block is
		// a fresh one, and emitPending returns all the same.
		w := primedWorker(t, Config{OutLen: 1 << 20})
		blocks := (len(w.pend) + blockSize - 1) / blockSize
		got := mallocsPerRun(20, w.emitPending)
		if got != uint64(4*blocks) {
			t.Errorf("emitting %d blocks with an empty free list allocates %d times, want %d (a block, its matches, two slabs)", blocks, got, 4*blocks)
		}
		if n := len(w.r.out); n != 21*blocks {
			t.Fatalf("%d blocks queued, want %d", n, 21*blocks)
		}
		close(w.r.out)
		w.r.Drain(nil)
		if n := len(w.r.free); n != poolDepth {
			t.Errorf("free list holds %d blocks after the backlog drained, want its bound %d", n, poolDepth)
		}
	})
}

// registerHops registers the six hop queries on r under cfg.
func registerHops(t *testing.T, r *Router, cfg core.Config) {
	t.Helper()
	names, queries := hopQueries()
	for _, name := range names {
		if err := r.Register(name, queries[name], cfg); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
}

// ingestBatches feeds edges to r in 512-edge batches.
func ingestBatches(r *Router, edges []stream.Edge) {
	for lo := 0; lo < len(edges); lo += 512 {
		r.IngestBatch(edges[lo:min(lo+512, len(edges))])
	}
}

// TestDrainMatchLifetime pins the collection contract: a Match is valid
// until its Drain callback returns, its block is reused afterwards, and
// Match.Clone is what outlives it. With the poison hook on, a consumer
// that kept un-cloned matches finds them scribbled over and one that
// cloned them does not; and the package's differentials — local, remote
// and mixed, ordered, migration, durable restart — pass unchanged, so
// nothing in the runtime or its tests reads a block it has handed back.
func TestDrainMatchLifetime(t *testing.T) {
	poisonRecycled(t)

	t.Run("kept match is poisoned, cloned match is not", func(t *testing.T) {
		edges := denseStream()
		r := New(Config{Shards: 2, Window: denseWindow})
		registerHops(t, r, core.Config{Strategy: core.StrategySingle})
		var kept, cloned []Match
		var sigs []string
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Drain(func(m Match) {
				if len(sigs)%97 == 0 {
					kept, cloned = append(kept, m), append(cloned, m.Clone())
				}
				sigs = append(sigs, matchSig(m))
			})
		}()
		ingestBatches(r, edges)
		r.Close()
		<-done
		if len(kept) < 2*blockSize/97 {
			t.Fatalf("kept only %d matches of %d", len(kept), len(sigs))
		}
		for i := range kept {
			want := sigs[i*97]
			if got := matchSig(cloned[i]); got != want {
				t.Errorf("cloned match %d reads %q after its block was recycled, want %q", i, got, want)
			}
			k := kept[i]
			if matchSig(k) == want {
				t.Errorf("un-cloned match %d still reads %q: its block was not recycled (or not poisoned)", i, want)
			}
			for _, b := range k.Bindings {
				if b.DataVertex != poisonName {
					t.Errorf("un-cloned match %d binds %q after recycling, want the poison", i, b.DataVertex)
				}
			}
			for _, e := range k.Edges {
				if e.Type != poisonName {
					t.Errorf("un-cloned match %d has an edge of type %q after recycling, want the poison", i, e.Type)
				}
			}
		}
	})

	for _, d := range []struct {
		name string
		test func(*testing.T)
	}{
		{"local", TestShardedMatchesSerial},
		{"remote and mixed", TestRemoteMatchesSerial},
		{"ordered", TestOrderedModeDeterministic},
		{"remote ordered", TestRemoteOrderedDeterministic},
		{"migrate", TestMigrateMatchesSerial},
		{"durable restart", TestDurableCleanRestartMatchesSerial},
	} {
		t.Run(d.name, d.test)
	}
}

// TestResultSlabLifetimeSharded runs the sharded differential with both
// poison hooks on: every engine result slab is scribbled over when its
// engine's next call starts (sjtree.ResetHook), and every block when it
// is handed back. A worker that resolved a match after its engine's next
// call, or a consumer that kept one past its callback, would deliver the
// scribble and miss the serial oracle.
func TestResultSlabLifetimeSharded(t *testing.T) {
	poisonRecycled(t)
	prev := sjtree.ResetHook
	sjtree.ResetHook = sjtree.Scribble
	t.Cleanup(func() { sjtree.ResetHook = prev })
	TestShardedMatchesSerial(t)
}

// TestPoolBounded pins the free list's bound through a whole router: a
// burst of batches against a consumer stalled in its first callback
// fills the collection budget with fresh blocks; once the consumer
// drains them, the free list holds its constant and no more, and every
// match arrived.
func TestPoolBounded(t *testing.T) {
	edges := denseStream()
	names, queries := hopQueries()
	const outLen = 16 * blockSize // twice the pool, in blocks
	r := New(Config{Shards: 2, Window: denseWindow, FullReplicas: true, OutLen: outLen})
	registerHops(t, r, core.Config{Strategy: core.StrategySingle})
	if cap(r.free) != poolDepth {
		t.Fatalf("free list capacity %d, want %d", cap(r.free), poolDepth)
	}
	release := make(chan struct{})
	counted := make(chan int64, 1)
	go func() {
		first := true
		counted <- r.Drain(func(Match) {
			if first {
				first = false
				<-release
			}
			if n := len(r.free); n > poolDepth {
				t.Errorf("free list holds %d blocks, bound %d", n, poolDepth)
			}
		})
	}()
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		ingestBatches(r, edges)
	}()
	// Wait until the budget is full of blocks nobody has handed back.
	for deadline := time.Now().Add(10 * time.Second); r.emitted.Load() < outLen && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if e := r.emitted.Load(); e < outLen {
		t.Fatalf("only %d matches emitted against the stalled consumer, want the budget of %d", e, outLen)
	}
	close(release)
	<-fed
	r.Close()
	want := int64(len(slotReference(t, edges, 512, names, queries)))
	if got := <-counted; got != want {
		t.Errorf("drained %d matches, want %d", got, want)
	}
	if n := len(r.free); n != poolDepth {
		t.Errorf("free list holds %d blocks after a burst of %d, want its bound %d", n, outLen/blockSize, poolDepth)
	}
}

// TestBlocksRecycleConcurrently runs every kind of producer against one
// recycling consumer — local slots and a remote slot resolving into
// blocks, then the ordered merge copying bundles into them — with the
// poison hook on, so that a block refilled while anybody still reads it
// shows as a wrong match as well as a race (CI: -race -count=10).
func TestBlocksRecycleConcurrently(t *testing.T) {
	poisonRecycled(t)
	edges := denseStream()
	names, queries := hopQueries()
	want := slotReference(t, edges, 512, names, queries)
	sorted := append([]string(nil), want...)
	sort.Strings(sorted)
	addr, _ := startRemoteWorker(t)
	for _, tp := range []struct {
		name string
		cfg  Config
	}{
		{"completion order", Config{Shards: 2, Remotes: []string{addr}, Window: denseWindow, FullReplicas: true, OutLen: blockSize}},
		{"ordered merge", Config{Shards: 2, Remotes: []string{addr}, Window: denseWindow, Ordered: true, OutLen: blockSize}},
	} {
		t.Run(tp.name, func(t *testing.T) {
			r := New(tp.cfg)
			registerHops(t, r, core.Config{Strategy: core.StrategySingle})
			var got []string
			done := make(chan struct{})
			go func() {
				defer close(done)
				r.Drain(func(m Match) { got = append(got, matchSig(m)) })
			}()
			ingestBatches(r, edges)
			r.Close()
			<-done
			ref := want
			if !tp.cfg.Ordered {
				sort.Strings(got)
				ref = sorted
			}
			if !equalStrings(got, ref) {
				t.Errorf("%d matches delivered, reference has %d (or they differ)", len(got), len(ref))
			}
		})
	}
}

// TestSteadyStateAllocFree is the end-to-end gate of the sharded data
// path: a filtered two-shard router under lazy queries, fed 512-edge
// batches of a stream that keeps its hosts and its window, with a
// consuming Drain. Once warm, what a batch allocates is the router's own
// edge-log views — two or three per IngestBatch call, whatever the batch
// holds — and the odd pool miss of an engine: nothing per edge (the
// replicas' filtered ingest copies none), nothing per match, and nothing
// per block (each shard delivers at least one a batch, so one allocation
// per block would add two a batch and break the bound).
func TestSteadyStateAllocFree(t *testing.T) {
	lap := denseStream()
	span := lap[len(lap)-1].TS - lap[0].TS + 1
	const warm, measured, batch = 6, 8, 512
	edges := make([]stream.Edge, 0, (warm+measured)*len(lap))
	for l := 0; l < warm+measured; l++ {
		for _, se := range lap {
			se.TS += int64(l) * span
			edges = append(edges, se)
		}
	}
	r := New(Config{Shards: 2, Window: denseWindow})
	stats := trained(lap)
	registerHops(t, r, core.Config{Strategy: core.StrategySingleLazy, Stats: stats})
	var bindings int
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drain(func(m Match) { bindings += len(m.Bindings) })
	}()
	// ingest returns once both shards have processed every batch routed
	// to them (a worker times a batch after emitting its matches) and the
	// consumer has handed the blocks back.
	ingest := func(edges []stream.Edge) {
		ingestBatches(r, edges)
		for _, w := range r.workers {
			for w.batchTime.Count() < uint64(w.edgesRouted.Load()/batch) {
				runtime.Gosched()
			}
		}
		for r.consumed.Load() < r.emitted.Load() {
			runtime.Gosched()
		}
	}
	ingest(edges[:warm*len(lap)])
	rest := edges[warm*len(lap):]
	emitted := r.emitted.Load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ingest(rest)
	runtime.ReadMemStats(&after)
	batches := len(rest) / batch
	mallocs := int(after.Mallocs - before.Mallocs)
	matches := r.emitted.Load() - emitted
	t.Logf("%d batches, %d matches: %d allocations (%.2f per batch)", batches, matches, mallocs, float64(mallocs)/float64(batches))
	r.Close()
	<-done
	if matches < int64(len(rest)) {
		t.Fatalf("only %d matches over %d edges: the stream does not fill blocks", matches, len(rest))
	}
	if mallocs > 4*batches {
		t.Errorf("%d allocations over %d batches of %d edges, want a constant few per batch (the router's log views)", mallocs, batches, batch)
	}
}
