package shard

// Live-migration and failover differentials. The bar everywhere is the
// serial oracle: whatever schedule of Migrate / AddSlot / RemoveSlot /
// Rebalance / connection kicks / process kills runs against the
// router, the delivered match multiset must stay byte-identical to a
// serial MultiEngine on the same stream (registration schedules
// mirrored). Migration is supposed to be semantically invisible; these
// tests make "invisible" a checkable property.

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/dshard"
	"streamgraph/internal/stream"
)

// ownerSlot reports which slot currently owns a query (-1 if none).
func ownerSlot(r *Router, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w := r.owner[name]; w != nil {
		return w.id
	}
	return -1
}

// slotRetired reads a slot's tombstone under the admission lock.
func slotRetired(r *Router, id int) bool {
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	return r.workers[id].retired
}

// TestMigrateMatchesSerial is the basic tentpole differential: queries
// hop between slots mid-stream — local→local, local→remote,
// remote→local, remote→remote — and the match multiset must equal the
// serial engine's exactly. Ownership must actually move each time.
func TestMigrateMatchesSerial(t *testing.T) {
	edges := testStream(1500)
	const window = 400
	want := append([]string(nil), runSerial(t, edges, window)...)
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}
	addr1, _ := startRemoteWorker(t)
	addr2, _ := startRemoteWorker(t)
	topologies := []struct {
		name string
		cfg  Config
	}{
		{"local-3", Config{Shards: 3}},
		{"mixed-1-2", Config{Shards: 1, Remotes: []string{addr1, addr2}}},
		{"all-remote-2", Config{Shards: 0, Remotes: []string{addr1, addr2}}},
	}
	for _, tp := range topologies {
		t.Run(tp.name, func(t *testing.T) {
			cfg := tp.cfg
			cfg.Window = window
			r := New(cfg)
			queries, strategies := testQueries(), testStrategies()
			names := sortedNames(queries)
			for _, name := range names {
				if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
					t.Fatalf("register %s: %v", name, err)
				}
			}
			var mu sync.Mutex
			var got []string
			done := make(chan struct{})
			go func() {
				defer close(done)
				r.Drain(func(m Match) {
					mu.Lock()
					got = append(got, matchSig(m))
					mu.Unlock()
				})
			}()
			const batch = 50
			slots := r.NumShards()
			migrations := 0
			for lo := 0; lo < len(edges); lo += batch {
				hi := lo + batch
				if hi > len(edges) {
					hi = len(edges)
				}
				r.IngestBatch(edges[lo:hi])
				// Every few batches, rotate one query to the next slot —
				// over the stream every query crosses every slot boundary
				// the topology has.
				if slots > 1 && (lo/batch)%3 == 1 {
					name := names[(lo/batch)%len(names)]
					from := ownerSlot(r, name)
					to := (from + 1) % slots
					if err := r.Migrate(name, from, to); err != nil {
						t.Fatalf("migrate %s %d->%d at edge %d: %v", name, from, to, lo, err)
					}
					if now := ownerSlot(r, name); now != to {
						t.Fatalf("after migrate, %s owned by slot %d, want %d", name, now, to)
					}
					migrations++
				}
			}
			if slots > 1 && migrations < 5 {
				t.Fatalf("only %d migrations; schedule is vacuous", migrations)
			}
			r.Close()
			<-done
			sort.Strings(got)
			if !equalStrings(got, want) {
				t.Fatalf("after %d migrations: %d matches, want %d (multiset differs)", migrations, len(got), len(want))
			}
			// The counters agree with what the schedule actually did.
			samples := r.Metrics().Snapshot()
			if n := metricValue(t, samples, "sg_migrations_completed_total"); n != int64(migrations) {
				t.Fatalf("sg_migrations_completed_total = %d, want %d", n, migrations)
			}
			if n := metricValue(t, samples, "sg_migrations_failed_total"); n != 0 {
				t.Fatalf("sg_migrations_failed_total = %d, want 0", n)
			}
		})
	}
}

// TestMigrateRandomizedSchedules is the property test: randomized
// streams, topologies, batch splits, migration points, a mid-stream
// register/unregister pair and connection kicks, all interleaved — the
// survivor multiset must equal a serial oracle running the mirrored
// registration schedule. Run under -race in CI.
func TestMigrateRandomizedSchedules(t *testing.T) {
	addr, srv := startRemoteWorker(t)
	types := []string{"GRE", "TCP", "UDP", "ICMP"}
	for _, seed := range []int64{1, 99, 4242} {
		rng := rand.New(rand.NewSource(seed))
		nEdges := 400 + rng.Intn(400)
		var edges []stream.Edge
		for i := 0; i < nEdges; i++ {
			edges = append(edges, stream.Edge{
				Src: fmt.Sprintf("n%d", rng.Intn(50)), SrcLabel: "ip",
				Dst: fmt.Sprintf("n%d", rng.Intn(50)), DstLabel: "ip",
				Type: types[rng.Intn(len(types))], TS: int64(i + 1),
			})
		}
		window := int64(100 + rng.Intn(300))
		regAt := nEdges/4 + rng.Intn(nEdges/4)
		unregAt := regAt + 1 + rng.Intn(nEdges/4)

		queries, strategies := testQueries(), testStrategies()
		names := sortedNames(queries)
		extra := queries["gre-tcp"].Clone()

		// Serial oracle with the same registration schedule; "extra" is
		// excluded from both sides (mid-stream lifecycle).
		want := func() []string {
			m := core.NewMulti(core.MultiConfig{Window: window})
			for _, name := range names {
				if err := m.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
					t.Fatalf("seed %d: serial register %s: %v", seed, name, err)
				}
			}
			var sigs []string
			for i, se := range edges {
				if i == regAt {
					if err := m.Register("extra", extra, core.Config{Strategy: core.StrategySingleLazy}); err != nil {
						t.Fatalf("seed %d: serial register extra: %v", seed, err)
					}
				}
				if i == unregAt {
					m.Unregister("extra")
				}
				for _, nm := range m.ProcessEdge(se) {
					if nm.Query != "extra" {
						sigs = append(sigs, serialSig(m, nm))
					}
				}
			}
			return sigs
		}()
		sort.Strings(want)

		cfg := Config{Window: window}
		remote := rng.Intn(2) == 0
		if remote {
			cfg.Shards, cfg.Remotes = 1+rng.Intn(2), []string{addr}
		} else {
			cfg.Shards = 2 + rng.Intn(3)
		}
		r := New(cfg)
		for _, name := range names {
			if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
				t.Fatalf("seed %d: register %s: %v", seed, name, err)
			}
		}
		var mu sync.Mutex
		var got []string
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Drain(func(m Match) {
				if m.Query == "extra" {
					return
				}
				mu.Lock()
				got = append(got, matchSig(m))
				mu.Unlock()
			})
		}()
		slots := r.NumShards()
		migrations := 0
		ingestTo := func(pos, hi int) int {
			for pos < hi {
				end := pos + 1 + rng.Intn(100)
				if end > hi {
					end = hi
				}
				r.IngestBatch(edges[pos:end])
				pos = end
				// Random control ops between batches.
				if slots > 1 && rng.Intn(3) == 0 {
					regd := r.Registered()
					name := regd[rng.Intn(len(regd))]
					from, to := ownerSlot(r, name), rng.Intn(slots)
					if from != to {
						if err := r.Migrate(name, from, to); err != nil {
							t.Fatalf("seed %d: migrate %s %d->%d: %v", seed, name, from, to, err)
						}
						migrations++
					}
				}
				if remote && rng.Intn(6) == 0 {
					srv.Kick()
				}
			}
			return pos
		}
		pos := ingestTo(0, regAt)
		if err := r.Register("extra", extra, core.Config{Strategy: core.StrategySingleLazy}); err != nil {
			t.Fatalf("seed %d: register extra: %v", seed, err)
		}
		pos = ingestTo(pos, unregAt)
		r.Unregister("extra")
		ingestTo(pos, len(edges))
		r.Close()
		<-done
		sort.Strings(got)
		if !equalStrings(got, want) {
			t.Fatalf("seed %d (%+v, %d migrations): %d matches, want %d (multiset differs)",
				seed, cfg, migrations, len(got), len(want))
		}
	}
}

// TestElasticScaleOutIn grows the topology mid-stream with AddSlot,
// spreads load onto the new slot with Rebalance, kicks its connection,
// then drains it back out with RemoveSlot — all while streaming — and
// the multiset must still equal the serial engine.
func TestElasticScaleOutIn(t *testing.T) {
	edges := testStream(1500)
	const window = 400
	want := append([]string(nil), runSerial(t, edges, window)...)
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}
	addr, srv := startRemoteWorker(t)
	r := New(Config{Shards: 1, Window: window})
	queries, strategies := testQueries(), testStrategies()
	for _, name := range sortedNames(queries) {
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	var mu sync.Mutex
	var got []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drain(func(m Match) {
			mu.Lock()
			got = append(got, matchSig(m))
			mu.Unlock()
		})
	}()
	const batch = 50
	third := len(edges) / 3
	for lo := 0; lo < third; lo += batch {
		r.IngestBatch(edges[lo:min(lo+batch, third)])
	}
	// Scale out: a new remote slot, then rebalance onto it.
	id, err := r.AddSlot(addr)
	if err != nil {
		t.Fatalf("AddSlot: %v", err)
	}
	if id != 1 || r.NumShards() != 2 {
		t.Fatalf("AddSlot returned id %d, NumShards %d", id, r.NumShards())
	}
	moved, err := r.Rebalance()
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if moved == 0 {
		t.Fatal("Rebalance moved nothing onto the empty slot")
	}
	for lo := third; lo < 2*third; lo += batch {
		r.IngestBatch(edges[lo:min(lo+batch, 2*third)])
		if (lo-third)/batch == 2 {
			srv.Kick() // the migrated registration must survive a reconnect
		}
	}
	// Scale back in: everything the slot owns is migrated off, then the
	// slot is retired and pins nothing.
	if err := r.RemoveSlot(id); err != nil {
		t.Fatalf("RemoveSlot: %v", err)
	}
	if !slotRetired(r, id) {
		t.Fatal("removed slot is not retired")
	}
	for _, name := range r.Registered() {
		if s := ownerSlot(r, name); s == id {
			t.Fatalf("query %s still owned by removed slot", name)
		}
	}
	if err := r.RemoveSlot(id); err == nil {
		t.Fatal("double RemoveSlot succeeded")
	}
	for lo := 2 * third; lo < len(edges); lo += batch {
		r.IngestBatch(edges[lo:min(lo+batch, len(edges))])
	}
	r.Close()
	<-done
	sort.Strings(got)
	if !equalStrings(got, want) {
		t.Fatalf("elastic run: %d matches, want %d (multiset differs)", len(got), len(want))
	}
}

// TestRebalanceHotSpot piles every query onto one slot and lets the
// policy spread them: the final ownership spread must be ≤ 1, with the
// exact number of moves the imbalance implies — and the stream stays
// exact throughout.
func TestRebalanceHotSpot(t *testing.T) {
	edges := testStream(1200)
	const window = 400
	want := append([]string(nil), runSerial(t, edges, window)...)
	sort.Strings(want)
	r := New(Config{Shards: 3, Window: window})
	queries, strategies := testQueries(), testStrategies()
	for _, name := range sortedNames(queries) {
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	var mu sync.Mutex
	var got []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drain(func(m Match) {
			mu.Lock()
			got = append(got, matchSig(m))
			mu.Unlock()
		})
	}()
	half := len(edges) / 2
	for lo := 0; lo < half; lo += 50 {
		r.IngestBatch(edges[lo:min(lo+50, half)])
	}
	// Force the hot spot: all three queries on slot 0.
	for _, name := range r.Registered() {
		if from := ownerSlot(r, name); from != 0 {
			if err := r.Migrate(name, from, 0); err != nil {
				t.Fatalf("pile %s onto slot 0: %v", name, err)
			}
		}
	}
	moved, err := r.Rebalance()
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if moved != 2 { // 3/0/0 → 2/0/1 → 1/1/1
		t.Fatalf("Rebalance moved %d queries, want 2", moved)
	}
	counts := make(map[int]int)
	for _, name := range r.Registered() {
		counts[ownerSlot(r, name)]++
	}
	for slot, n := range counts {
		if n != 1 {
			t.Fatalf("slot %d owns %d queries after rebalance, want 1 (%v)", slot, n, counts)
		}
	}
	if moved2, err := r.Rebalance(); err != nil || moved2 != 0 {
		t.Fatalf("second Rebalance = (%d, %v), want (0, nil)", moved2, err)
	}
	for lo := half; lo < len(edges); lo += 50 {
		r.IngestBatch(edges[lo:min(lo+50, len(edges))])
	}
	r.Close()
	<-done
	sort.Strings(got)
	if !equalStrings(got, want) {
		t.Fatalf("rebalanced run: %d matches, want %d (multiset differs)", len(got), len(want))
	}
}

// TestMigrateValidation pins the error surface: bad slots, wrong
// owners, Ordered mode, durable AddSlot, closed routers. None of these
// may count as a started migration.
func TestMigrateValidation(t *testing.T) {
	r := New(Config{Shards: 2, Window: 100})
	done := make(chan int64, 1)
	go func() { done <- r.Drain(nil) }()
	if err := r.Register("q", testQueries()["gre-tcp"], core.Config{Strategy: core.StrategySingleLazy}); err != nil {
		t.Fatal(err)
	}
	from := ownerSlot(r, "q")
	if err := r.Migrate("q", from, from); err == nil {
		t.Fatal("migrate to the same slot succeeded")
	}
	if err := r.Migrate("q", 1-from, from); err == nil {
		t.Fatal("migrate from a slot that does not own the query succeeded")
	}
	if err := r.Migrate("ghost", 0, 1); err == nil {
		t.Fatal("migrate of an unregistered query succeeded")
	}
	if err := r.Migrate("q", from, 5); err == nil {
		t.Fatal("migrate to an out-of-range slot succeeded")
	}
	if err := r.RemoveSlot(5); err == nil {
		t.Fatal("RemoveSlot out of range succeeded")
	}
	if n := metricValue(t, r.Metrics().Snapshot(), "sg_migrations_started_total"); n != 0 {
		t.Fatalf("validation errors counted as started migrations: %d", n)
	}
	r.Close()
	<-done
	if err := r.Migrate("q", from, 1-from); err == nil {
		t.Fatal("migrate on a closed router succeeded")
	}

	// A one-slot topology has nowhere to evacuate to.
	r1 := New(Config{Shards: 1, Window: 100})
	done1 := make(chan int64, 1)
	go func() { done1 <- r1.Drain(nil) }()
	if err := r1.Register("q", testQueries()["gre-tcp"], core.Config{Strategy: core.StrategySingleLazy}); err != nil {
		t.Fatal(err)
	}
	if err := r1.RemoveSlot(0); err == nil {
		t.Fatal("RemoveSlot of the only slot owning queries succeeded")
	}
	r1.Close()
	<-done1

	// Ordered mode: the deterministic merge needs static placement.
	ro := New(Config{Shards: 2, Ordered: true, FullReplicas: true})
	doneO := make(chan int64, 1)
	go func() { doneO <- ro.Drain(nil) }()
	if err := ro.Migrate("q", 0, 1); err == nil {
		t.Fatal("Migrate succeeded in Ordered mode")
	}
	if _, err := ro.Rebalance(); err == nil {
		t.Fatal("Rebalance succeeded in Ordered mode")
	}
	if _, err := ro.AddSlot("127.0.0.1:1"); err == nil {
		t.Fatal("AddSlot succeeded in Ordered mode")
	}
	if err := ro.RemoveSlot(0); err == nil {
		t.Fatal("RemoveSlot succeeded in Ordered mode")
	}
	ro.Close()
	<-doneO

	// Durable routers get their topology from Config at Open time.
	rd, _, err := Open(Config{Shards: 1, Window: 100, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	doneD := make(chan int64, 1)
	go func() { doneD <- rd.Drain(nil) }()
	if _, err := rd.AddSlot("127.0.0.1:1"); err == nil {
		t.Fatal("AddSlot succeeded on a durable router")
	}
	rd.Close()
	<-doneD
}

// TestMigrationMetricsTruthful is the counter differential: the
// migration series must agree exactly with the operations the test
// performed — including a failed migration (non-wire-safe query vs a
// remote target) that must leave the query where it was.
func TestMigrationMetricsTruthful(t *testing.T) {
	edges := testStream(1000)
	const window = 400
	want := append([]string(nil), runSerial(t, edges, window)...)
	sort.Strings(want)
	r := New(Config{Shards: 2, Window: window})
	queries, strategies := testQueries(), testStrategies()
	for _, name := range sortedNames(queries) {
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	// A local-only topology accepts a non-wire-safe query; its type
	// never occurs in the stream, so the serial differential is
	// unaffected.
	bad := testQueries()["tcp-fan"].Clone()
	bad.Vertices[0].Name = "host a"
	bad.Edges = bad.Edges[:1]
	bad.Edges[0].Type = "NOPE"
	if err := r.Register("bad", bad, core.Config{Strategy: core.StrategyVF2}); err != nil {
		t.Fatalf("register bad: %v", err)
	}
	var mu sync.Mutex
	var got []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drain(func(m Match) {
			mu.Lock()
			got = append(got, matchSig(m))
			mu.Unlock()
		})
	}()
	half := len(edges) / 2
	for lo := 0; lo < half; lo += 50 {
		r.IngestBatch(edges[lo:min(lo+50, half)])
	}

	// One local→local migration.
	from := ownerSlot(r, "gre-tcp")
	if err := r.Migrate("gre-tcp", from, 1-from); err != nil {
		t.Fatalf("local migrate: %v", err)
	}
	// One local→remote migration, onto a slot added at runtime.
	addr, _ := startRemoteWorker(t)
	id, err := r.AddSlot(addr)
	if err != nil {
		t.Fatalf("AddSlot: %v", err)
	}
	if err := r.Migrate("udp-icmp", ownerSlot(r, "udp-icmp"), id); err != nil {
		t.Fatalf("remote migrate: %v", err)
	}
	// One failed migration: the non-wire-safe query cannot cross the
	// wire; it must be re-placed on its source, intact.
	badFrom := ownerSlot(r, "bad")
	if err := r.Migrate("bad", badFrom, id); err == nil {
		t.Fatal("non-wire-safe query migrated to a remote slot")
	}
	if now := ownerSlot(r, "bad"); now != badFrom {
		t.Fatalf("failed migration moved the query: slot %d, want %d", now, badFrom)
	}
	for lo := half; lo < len(edges); lo += 50 {
		r.IngestBatch(edges[lo:min(lo+50, len(edges))])
	}
	reg := r.Metrics()
	r.Close()
	<-done

	samples := reg.Snapshot()
	started := metricValue(t, samples, "sg_migrations_started_total")
	completed := metricValue(t, samples, "sg_migrations_completed_total")
	failed := metricValue(t, samples, "sg_migrations_failed_total")
	if started != 3 || completed != 2 || failed != 1 {
		t.Fatalf("started/completed/failed = %d/%d/%d, want 3/2/1", started, completed, failed)
	}
	if started != completed+failed {
		t.Fatalf("started %d != completed %d + failed %d", started, completed, failed)
	}
	if n := metricValue(t, samples, "sg_migration_backfill_edges_total"); n == 0 {
		t.Fatal("remote migration shipped no backfill edges")
	}
	if n := metricValue(t, samples, "sg_failovers_total"); n != 0 {
		t.Fatalf("sg_failovers_total = %d, want 0", n)
	}
	var drainSamples int64 = -1
	for _, s := range samples {
		if s.Name == "sg_migration_drain_ns" && s.Hist != nil {
			drainSamples = int64(s.Hist.Count())
		}
	}
	if drainSamples < completed {
		t.Fatalf("sg_migration_drain_ns recorded %d samples, want ≥ %d", drainSamples, completed)
	}
	sort.Strings(got)
	if !equalStrings(got, want) {
		t.Fatalf("metrics run: %d matches, want %d (multiset differs)", len(got), len(want))
	}

	// Eager registration: a router that never migrates still scrapes
	// every migration series, at zero.
	r0 := New(Config{Shards: 1})
	d0 := make(chan int64, 1)
	go func() { d0 <- r0.Drain(nil) }()
	s0 := r0.Metrics().Snapshot()
	for _, series := range []string{
		"sg_migrations_started_total", "sg_migrations_completed_total",
		"sg_migrations_failed_total", "sg_migration_backfill_edges_total",
		"sg_failovers_total",
	} {
		if v := metricValue(t, s0, series); v != 0 {
			t.Fatalf("%s = %d on a fresh router", series, v)
		}
	}
	r0.Close()
	<-d0
}

// TestFailoverShardChild is the re-exec helper for the kill -9
// failover differential: a real worker process serving the dshard
// protocol, killed without warning by the parent. Skipped unless the
// parent set its environment.
func TestFailoverShardChild(t *testing.T) {
	addrFile := os.Getenv("SG_FAILOVER_ADDRFILE")
	if addrFile == "" {
		t.Skip("re-exec helper; driven by TestFailoverKillsWorkerProcess")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := dshard.NewServer()
	if err := os.WriteFile(addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatalf("write addr file: %v", err)
	}
	srv.Serve(ln) // until SIGKILL
}

// TestFailoverKillsWorkerProcess is the chaos differential: a real
// worker process is killed with SIGKILL mid-stream. With a redial
// budget, the router must stand up the hospice, evacuate the dead
// slot's queries onto the survivor, retire the slot, and let the
// EdgeLog pin advance past the kill point — with the final multiset
// byte-identical to the serial oracle (zero loss, zero duplication).
func TestFailoverKillsWorkerProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec chaos test; skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(exe, "-test.run", "^TestFailoverShardChild$")
	cmd.Env = append(os.Environ(), "SG_FAILOVER_ADDRFILE="+addrFile)
	if err := cmd.Start(); err != nil {
		t.Fatalf("start worker process: %v", err)
	}
	wait := make(chan error, 1)
	go func() { wait <- cmd.Wait() }()
	var addr string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = string(b)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker process never published its address")
		}
		time.Sleep(5 * time.Millisecond)
	}

	edges := testStream(1500)
	const window = 400
	r := New(Config{Shards: 1, Remotes: []string{addr}, Window: window, RedialBudget: 3})
	queries, strategies := testQueries(), testStrategies()
	for _, name := range sortedNames(queries) {
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	var mu sync.Mutex
	var got []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drain(func(m Match) {
			mu.Lock()
			got = append(got, matchSig(m))
			mu.Unlock()
		})
	}()
	var ingested []stream.Edge
	feed := func(batch []stream.Edge) {
		r.IngestBatch(batch)
		ingested = append(ingested, batch...)
	}
	const batch = 50
	twoThirds := 2 * len(edges) / 3
	for lo := 0; lo < twoThirds; lo += batch {
		feed(edges[lo:min(lo+batch, twoThirds)])
	}
	// Make sure the doomed slot actually owns something.
	onRemote := 0
	for _, name := range r.Registered() {
		if ownerSlot(r, name) == 1 {
			onRemote++
		}
	}
	if onRemote == 0 {
		if err := r.Migrate("gre-tcp", ownerSlot(r, "gre-tcp"), 1); err != nil {
			t.Fatalf("seed the remote slot: %v", err)
		}
		onRemote = 1
	}
	seqAtKill := r.EdgesRouted()

	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no handlers, no goodbyes
		t.Fatalf("kill worker: %v", err)
	}
	<-wait

	for lo := twoThirds; lo < len(edges); lo += batch {
		feed(edges[lo:min(lo+batch, len(edges))])
	}
	// Failover + evacuation run asynchronously; keep the stream moving
	// (trims only run at ingest) until the slot is retired, every query
	// lives on the survivor, and the log pin has advanced past the kill
	// point.
	nextTS := edges[len(edges)-1].TS
	deadline := time.Now().Add(30 * time.Second)
	for {
		evacuated := true
		for _, name := range r.Registered() {
			if ownerSlot(r, name) != 0 {
				evacuated = false
			}
		}
		first, ok := r.log.FirstSeq()
		if evacuated && slotRetired(r, 1) && ok && first > seqAtKill {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover never completed: evacuated=%v retired=%v logFirst=%d/%v (kill at %d)",
				evacuated, slotRetired(r, 1), first, ok, seqAtKill)
		}
		nextTS++
		feed([]stream.Edge{{Src: "fx", SrcLabel: "ip", Dst: "fy", DstLabel: "ip", Type: "TCP", TS: nextTS}})
		time.Sleep(2 * time.Millisecond)
	}
	r.Close()
	<-done

	want := append([]string(nil), runSerial(t, ingested, window)...)
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}
	sort.Strings(got)
	if !equalStrings(got, want) {
		t.Fatalf("failover run: %d matches, want %d (multiset differs)", len(got), len(want))
	}
	samples := r.Metrics().Snapshot()
	if n := metricValue(t, samples, "sg_failovers_total"); n != 1 {
		t.Fatalf("sg_failovers_total = %d, want 1", n)
	}
	if n := metricValue(t, samples, "sg_migrations_completed_total"); n < int64(onRemote) {
		t.Fatalf("sg_migrations_completed_total = %d, want ≥ %d evacuations", n, onRemote)
	}
}

// TestFailoverNegativeControlBudgetZero pins the legacy behavior the
// budget replaces: with RedialBudget 0 a dead remote is redialed
// forever, no failover fires, the slot keeps its queries, and the
// EdgeLog cannot trim past the first unacknowledged batch.
func TestFailoverNegativeControlBudgetZero(t *testing.T) {
	addr, srv := startRemoteWorker(t)
	edges := testStream(900)
	const window = 400
	r := New(Config{Shards: 1, Remotes: []string{addr}, Window: window}) // budget 0
	queries, strategies := testQueries(), testStrategies()
	for _, name := range sortedNames(queries) {
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	done := make(chan int64, 1)
	go func() { done <- r.Drain(nil) }()
	half := len(edges) / 2
	for lo := 0; lo < half; lo += 50 {
		r.IngestBatch(edges[lo:min(lo+50, half)])
	}
	if ownerSlot(r, "gre-tcp") != 1 {
		if err := r.Migrate("gre-tcp", ownerSlot(r, "gre-tcp"), 1); err != nil {
			t.Fatalf("seed the remote slot: %v", err)
		}
	}
	seqDown := r.EdgesRouted()
	srv.Close() // listener and every connection die; redials fail from here on
	for lo := half; lo < len(edges); lo += 50 {
		r.IngestBatch(edges[lo:min(lo+50, len(edges))])
	}
	// Give the proxy ample time to burn through dial attempts: the
	// budgetless slot must never fail over.
	time.Sleep(1 * time.Second)
	if n := metricValue(t, r.Metrics().Snapshot(), "sg_failovers_total"); n != 0 {
		t.Fatalf("sg_failovers_total = %d with RedialBudget 0, want 0", n)
	}
	if slotRetired(r, 1) {
		t.Fatal("budgetless slot was retired")
	}
	if ownerSlot(r, "gre-tcp") != 1 {
		t.Fatal("budgetless dead slot lost its query")
	}
	if first, ok := r.log.FirstSeq(); ok && first > seqDown+1 {
		t.Fatalf("log trimmed to seq %d past the dead slot's unacked floor %d", first, seqDown+1)
	}
	// The router cannot drain a dead remote that owns queries; abandon
	// it (Close would block on the drain barrier — the documented
	// failure mode this control pins).
	_ = done
}

// --- migration × durability: staged kill -9 inside Migrate ----------

const migCrashStreamLen = 2000

func migCrashConfig(dir string) Config {
	return Config{Shards: 2, Window: 400, DataDir: dir, CheckpointEvery: 96}
}

// TestMigrateCrashChild is the re-exec helper for
// TestMigrateCrashDifferential. With SG_MIG_STAGE set it ingests half
// the stream, then SIGKILLs itself at the named stage inside a
// Migrate. Without it, it recovers, verifies the query landed on
// exactly one slot, and finishes the stream.
func TestMigrateCrashChild(t *testing.T) {
	dir := os.Getenv("SG_MIG_DIR")
	outPath := os.Getenv("SG_MIG_OUT")
	stage := os.Getenv("SG_MIG_STAGE")
	if dir == "" || outPath == "" {
		t.Skip("re-exec helper; driven by TestMigrateCrashDifferential")
	}
	out, err := os.OpenFile(outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open match log: %v", err)
	}
	defer out.Close()
	var wmu sync.Mutex
	emit := func(m Match) {
		wmu.Lock()
		fmt.Fprintf(out, "%s\n", matchSig(m))
		wmu.Unlock()
	}

	r, recovered, err := Open(migCrashConfig(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, m := range recovered {
		emit(m)
	}
	done := make(chan struct{})
	go func() { defer close(done); r.Drain(emit) }()
	registerAll(t, r)

	edges := testStream(migCrashStreamLen)
	half := migCrashStreamLen / 2
	const batch = 23
	pos := int(r.EdgesRouted())
	for ; pos < half; pos += batch {
		r.IngestBatch(edges[pos:min(pos+batch, half)])
	}

	if stage != "" {
		die := func(s string) {
			if s == stage {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
		migrateCrash, ckptCrash = die, die
		from := ownerSlot(r, "gre-tcp")
		err := r.Migrate("gre-tcp", from, 1-from)
		t.Fatalf("migrate survived stage %q (err=%v)", stage, err)
	}

	// Recovery run: the mid-migration crash must have left the query on
	// exactly one slot — never zero, never two.
	if regd := r.Registered(); len(regd) != 3 {
		t.Fatalf("recovered %d registrations, want 3: %v", len(regd), regd)
	}
	r.mu.Lock()
	totalOwned := 0
	for _, n := range r.owned {
		totalOwned += n
	}
	r.mu.Unlock()
	if totalOwned != 3 {
		t.Fatalf("slots own %d registrations in total, want 3", totalOwned)
	}
	if s := ownerSlot(r, "gre-tcp"); s < 0 {
		t.Fatal("migrated query has no owning slot after recovery")
	}
	for ; pos < len(edges); pos += batch {
		r.IngestBatch(edges[pos:min(pos+batch, len(edges))])
	}
	r.Close()
	<-done
	if err := r.PersistErr(); err != nil {
		t.Fatalf("persist error: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "DONE"), []byte("ok\n"), 0o644); err != nil {
		t.Fatalf("write sentinel: %v", err)
	}
}

// TestMigrateCrashDifferential kills -9 the router at each staged
// point inside a live migration on a durable topology — after the
// source extraction, after the target registration, and between the
// registry meta commit and the slot checkpoint publishes (the
// reconciliation window) — then recovers and finishes the stream. The
// union of delivered matches must equal the serial oracle (crash
// delivery is at-least-once: duplicates allowed, losses are the bug).
func TestMigrateCrashDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash schedule; skipped in -short")
	}
	edges := testStream(migCrashStreamLen)
	want := make(map[string]bool)
	for _, sig := range runSerial(t, edges, 400) {
		want[sig] = true
	}
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	for _, stage := range []string{"extracted", "target-registered", "meta-committed"} {
		t.Run(stage, func(t *testing.T) {
			root := t.TempDir()
			dataDir := filepath.Join(root, "data")
			outPath := filepath.Join(root, "matches.log")
			sentinel := filepath.Join(dataDir, "DONE")

			run := func(stageEnv string) (error, string) {
				cmd := exec.Command(exe, "-test.run", "^TestMigrateCrashChild$")
				cmd.Env = append(os.Environ(),
					"SG_MIG_DIR="+dataDir, "SG_MIG_OUT="+outPath, "SG_MIG_STAGE="+stageEnv)
				out, err := cmd.CombinedOutput()
				return err, string(out)
			}
			err, out := run(stage)
			if err == nil {
				t.Fatalf("crashing child exited cleanly at stage %s:\n%s", stage, out)
			}
			if _, serr := os.Stat(sentinel); serr == nil {
				t.Fatalf("crashing child wrote the completion sentinel at stage %s", stage)
			}
			err, out = run("")
			if err != nil {
				t.Fatalf("recovery child failed after stage %s: %v\n%s", stage, err, out)
			}
			if _, serr := os.Stat(sentinel); serr != nil {
				t.Fatalf("recovery child finished without the sentinel:\n%s", out)
			}

			data, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatalf("read match log: %v", err)
			}
			lines := splitDropTorn(string(data))
			got := make(map[string]bool)
			for _, ln := range lines {
				if ln != "" {
					got[ln] = true
				}
			}
			for sig := range want {
				if !got[sig] {
					t.Errorf("stage %s: match lost across the crash: %s", stage, sig)
				}
			}
			for sig := range got {
				if !want[sig] {
					t.Errorf("stage %s: spurious match after the crash: %s", stage, sig)
				}
			}
		})
	}
}

// splitDropTorn splits a line log, dropping a torn (unterminated)
// final line from a killed writer — its match was uncovered by any
// checkpoint and is re-emitted by the recovery run.
func splitDropTorn(data string) []string {
	lines := []string{}
	for {
		i := -1
		for j := 0; j < len(data); j++ {
			if data[j] == '\n' {
				i = j
				break
			}
		}
		if i < 0 {
			break // remainder (possibly torn) dropped
		}
		lines = append(lines, data[:i])
		data = data[i+1:]
	}
	return lines
}
