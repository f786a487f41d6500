package shard

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/datagen"
	"streamgraph/internal/dshard"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
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
			for block := range r.out {
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
				r.consumed.Add(int64(len(block)))
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
// worth) in w.pend. A goroutine consumes what the worker delivers.
func primedWorker(t *testing.T) *worker {
	t.Helper()
	r := newRouter(Config{Shards: 1, Window: denseWindow, FullReplicas: true})
	go func() {
		for block := range r.out {
			r.release(len(block))
		}
	}()
	t.Cleanup(func() { close(r.out) })
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

// TestCollectAllocsPerBlock gates the local collection path at three
// allocations per block — the []Match and the two slabs — and none per
// match: resolution, the emitted counters, the channel send and the
// per-query telemetry all ride on those.
func TestCollectAllocsPerBlock(t *testing.T) {
	w := primedWorker(t)
	blocks := (len(w.pend) + blockSize - 1) / blockSize
	got := mallocsPerRun(100, w.emitPending)
	t.Logf("%d matches, %d blocks, %d allocations", len(w.pend), blocks, got)
	if got > uint64(3*blocks) {
		t.Errorf("emitting %d matches in %d blocks allocates %d times, want <= %d", len(w.pend), blocks, got, 3*blocks)
	}
}

// TestRetainedMatchPinsOneBlock pins the documented retention contract:
// a Match kept after its callback keeps its own block's two slabs
// reachable and nothing of any other block.
func TestRetainedMatchPinsOneBlock(t *testing.T) {
	w := primedWorker(t)
	a := w.resolveBlock(w.pend[:blockSize])
	b := w.resolveBlock(w.pend[blockSize : 2*blockSize])
	var mu sync.Mutex
	freed := make(map[string]bool)
	watch := func(name string, slab *Binding) {
		runtime.SetFinalizer(slab, func(*Binding) {
			mu.Lock()
			freed[name] = true
			mu.Unlock()
		})
	}
	// A block's first match starts its binding slab.
	watch("a", &a[0].Bindings[0])
	watch("b", &b[0].Bindings[0])
	kept := a[blockSize/2]
	a, b = nil, nil
	ok := false
	for i := 0; i < 100 && !ok; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		mu.Lock()
		ok = freed["b"]
		mu.Unlock()
	}
	mu.Lock()
	defer mu.Unlock()
	if !ok {
		t.Error("another block's slab is still reachable through a retained match")
	}
	if freed["a"] {
		t.Error("the retained match's own slab was collected")
	}
	if len(kept.Bindings) == 0 || kept.Bindings[0].DataVertex == "" {
		t.Error("retained match lost its bindings")
	}
}
