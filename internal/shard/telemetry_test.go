package shard

import (
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/dshard"
	"streamgraph/internal/edlog"
	"streamgraph/internal/graph"
	"streamgraph/internal/metrics"
)

// metricValue returns the value of the sample with the given name and
// exact label list, failing the test when the series is absent.
func metricValue(t *testing.T, samples []metrics.Sample, name string, labels ...string) int64 {
	t.Helper()
	for _, s := range samples {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for i := range labels {
			if s.Labels[i] != labels[i] {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	t.Fatalf("series %s%v not found in snapshot", name, labels)
	return 0
}

// reportGauges maps each per-slot gauge to its dshard.Report field.
func reportGauges(rep dshard.Report) map[string]int64 {
	return map[string]int64{
		"sg_shard_replica_edges": rep.Live, "sg_shard_replica_stored": rep.Stored, "sg_shard_replica_types": rep.Types,
		"sg_shard_replica_vertices": rep.Vertices, "sg_shard_replica_vertex_slots": rep.VertexSlots,
		"sg_engine_edges_processed": rep.Edges, "sg_engine_partial_matches": rep.Partial,
		"sg_engine_tree_inserted": rep.TreeInserted, "sg_engine_tree_deduped": rep.TreeDeduped,
		"sg_engine_tree_emitted": rep.TreeEmitted, "sg_engine_tree_evicted": rep.TreeEvicted,
		"sg_engine_pool_gets": rep.PoolGets, "sg_engine_pool_fresh": rep.PoolFresh,
	}
}

// slotGauges reads every reportGauges series of one slot.
func slotGauges(t *testing.T, samples []metrics.Sample, slot int) map[string]int64 {
	t.Helper()
	out := reportGauges(dshard.Report{})
	for name := range out {
		out[name] = metricValue(t, samples, name, "shard", strconv.Itoa(slot))
	}
	return out
}

// sumMetric sums every sample of a series family across its labels.
func sumMetric(samples []metrics.Sample, name string) int64 {
	var n int64
	for _, s := range samples {
		if s.Name == name {
			n += s.Value
		}
	}
	return n
}

// TestMetricsTruthfulness is the observability differential: the
// registry's counters must agree exactly with ground truth the test
// can compute independently — admitted edges, collected matches, and
// (durable mode) the edge log's on-disk footprint — across in-process,
// remote-loopback and durable topologies.
func TestMetricsTruthfulness(t *testing.T) {
	edges := testStream(3000)
	const window = 400
	addr, _ := startRemoteWorker(t)
	topologies := []struct {
		name    string
		cfg     Config
		durable bool
	}{
		{"inproc", Config{Shards: 3, Window: window}, false},
		{"remote", Config{Shards: 1, Remotes: []string{addr}, Window: window}, false},
		{"durable", Config{Shards: 2, Window: window, CheckpointEvery: 512, SegmentBytes: 16 << 10}, true},
	}
	for _, tp := range topologies {
		t.Run(tp.name, func(t *testing.T) {
			cfg := tp.cfg
			var r *Router
			if tp.durable {
				cfg.DataDir = t.TempDir()
				var err error
				var recovered []Match
				r, recovered, err = Open(cfg)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				if len(recovered) != 0 {
					t.Fatalf("cold start recovered %d matches", len(recovered))
				}
			} else {
				r = New(cfg)
			}
			queries, strategies := testQueries(), testStrategies()
			// Warm statistics, so the placement estimates are non-zero.
			stats := trained(edges)
			wantLoad := make(map[int]float64)
			for _, name := range sortedNames(queries) {
				if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name], Stats: stats}); err != nil {
					t.Fatalf("register %s: %v", name, err)
				}
				leaves, _, _, err := core.Decompose(queries[name], strategies[name], stats)
				if err != nil {
					t.Fatal(err)
				}
				space, err := stats.SpaceEstimate(queries[name], leaves)
				if err != nil || space == 0 {
					t.Fatalf("no estimate for %s (%v, %v); the load check is vacuous", name, space, err)
				}
				wantLoad[ownerSlot(r, name)] += space / float64(stats.EdgeTotal())
			}
			var mu sync.Mutex
			byQuery := make(map[string]int64)
			var collected int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				r.Drain(func(m Match) {
					mu.Lock()
					byQuery[m.Query]++
					collected++
					mu.Unlock()
				})
			}()
			for lo := 0; lo < len(edges); lo += 64 {
				hi := lo + 64
				if hi > len(edges) {
					hi = len(edges)
				}
				r.IngestBatch(edges[lo:hi])
			}
			reg := r.Metrics()
			if tp.name == "remote" {
				checkRemoteReport(t, r)
			}
			r.Close()
			<-done
			if collected == 0 {
				t.Fatal("workload produced no matches; differential is vacuous")
			}

			samples := reg.Snapshot()
			admitted := metricValue(t, samples, "sg_router_edges_admitted_total")
			if admitted != int64(len(edges)) {
				t.Errorf("admitted = %d, want %d", admitted, len(edges))
			}
			// Per shard, every admitted edge was either routed or gated:
			// gating is a whole-batch decision, so the two counters tile
			// the stream exactly.
			for i := 0; i < r.NumShards(); i++ {
				sh := []string{"shard", string(rune('0' + i))}
				routed := metricValue(t, samples, "sg_shard_edges_routed_total", sh...)
				gated := metricValue(t, samples, "sg_shard_edges_gated_total", sh...)
				if routed+gated != admitted {
					t.Errorf("shard %d: routed %d + gated %d != admitted %d", i, routed, gated, admitted)
				}
			}
			// A slot's estimated load is the sum of its queries' estimates
			// (Stats reports it, the gauge in thousandths).
			for _, st := range r.Stats() {
				if st.Load != wantLoad[st.Shard] {
					t.Errorf("shard %d: Stats().Load = %v, want %v", st.Shard, st.Load, wantLoad[st.Shard])
				}
				got := metricValue(t, samples, "sg_shard_estimated_load", "shard", strconv.Itoa(st.Shard))
				if want := int64(math.Round(wantLoad[st.Shard] * 1000)); got != want {
					t.Errorf("shard %d: sg_shard_estimated_load = %d, want %d", st.Shard, got, want)
				}
			}
			// Every collected match is counted once per query and once on
			// its emitting shard, and once by the consumption counter.
			if got := sumMetric(samples, "sg_matches_total"); got != collected {
				t.Errorf("sum sg_matches_total = %d, want %d collected", got, collected)
			}
			for q, want := range byQuery {
				if got := metricValue(t, samples, "sg_matches_total", "query", q); got != want {
					t.Errorf("sg_matches_total{query=%q} = %d, want %d", q, got, want)
				}
			}
			if got := sumMetric(samples, "sg_shard_matches_emitted_total"); got != collected {
				t.Errorf("sum sg_shard_matches_emitted_total = %d, want %d collected", got, collected)
			}
			if got := metricValue(t, samples, "sg_router_matches_consumed_total"); got != collected {
				t.Errorf("sg_router_matches_consumed_total = %d, want %d", got, collected)
			}
			// The stream is a few hundred ingest calls, far inside the
			// arrival ring: every match has a lag sample.
			if lag := r.MatchLag(); int64(lag.Count()) != collected {
				t.Errorf("match-lag histogram holds %d samples for %d matches", lag.Count(), collected)
			}
			// The replica vertex gauges against the replica itself, read
			// after Close: the live count is re-derived from the live
			// edges (every sweep reclaims the vertices without one, and
			// nothing here removes an edge outside a sweep), the slot
			// count is the size of the ID space.
			for _, w := range r.workers {
				if w.slot == nil {
					continue
				}
				g := w.slot.Eng.Graph()
				named := make(map[string]bool)
				g.EachEdge(func(e graph.Edge) bool {
					named[g.VertexName(e.Src)], named[g.VertexName(e.Dst)] = true, true
					return true
				})
				sh := []string{"shard", strconv.Itoa(w.id)}
				if got := metricValue(t, samples, "sg_shard_replica_vertices", sh...); got != int64(len(named)) {
					t.Errorf("shard %d: sg_shard_replica_vertices = %d, live edges name %d vertices", w.id, got, len(named))
				}
				if got := metricValue(t, samples, "sg_shard_replica_vertex_slots", sh...); got != int64(g.NumVertices()) || got < int64(len(named)) {
					t.Errorf("shard %d: sg_shard_replica_vertex_slots = %d, graph has %d slots for %d live vertices", w.id, got, g.NumVertices(), len(named))
				}
			}

			if tp.durable {
				// The disk-bytes gauge must agree with what is actually on
				// disk. Scraped after Close: no trim can race the walk.
				samples = reg.Snapshot()
				gauge := metricValue(t, samples, "sg_edlog_disk_bytes")
				var onDisk int64
				ents, err := os.ReadDir(filepath.Join(cfg.DataDir, "edgelog"))
				if err != nil {
					t.Fatalf("read edgelog dir: %v", err)
				}
				for _, e := range ents {
					if !edlog.IsSegmentFile(e.Name()) {
						continue
					}
					fi, err := e.Info()
					if err != nil {
						t.Fatal(err)
					}
					onDisk += fi.Size()
				}
				if gauge != onDisk {
					t.Errorf("sg_edlog_disk_bytes = %d, on-disk segment bytes = %d", gauge, onDisk)
				}
				if rounds := metricValue(t, samples, "sg_checkpoint_rounds_total"); rounds == 0 {
					t.Error("no checkpoint rounds counted despite CheckpointEvery cadence")
				}
				for _, s := range samples {
					if s.Name == "sg_edlog_fsync_ns" && (s.Hist == nil || s.Hist.Count() == 0) {
						t.Error("fsync histogram recorded no samples")
					}
				}
			}
		})
	}
}

// checkRemoteReport runs a checkpoint barrier on every remote slot and
// requires each gauge a snapshot image restores — replica edges, stored
// and types, named vertices, edges processed, partial matches — to
// equal the Report of the slot rebuilt from that barrier's snapshot.
// (The SJ-tree and match-pool activity totals and the vertex slot count
// are not part of an image: they restart on a restore.
// TestSlotGaugesDifferential pins those against a local twin.)
func checkRemoteReport(t *testing.T, r *Router) {
	t.Helper()
	restored := []string{ // the gauges an image restores
		"sg_shard_replica_edges", "sg_shard_replica_stored", "sg_shard_replica_types",
		"sg_shard_replica_vertices", "sg_engine_edges_processed", "sg_engine_partial_matches",
	}
	for _, w := range r.workers {
		if w.remote == nil {
			continue
		}
		rs := w.remote
		gen := rs.snapshotGen()
		r.ingestMu.Lock()
		w.in <- message{kind: msgCheckpoint}
		r.ingestMu.Unlock()
		deadline := time.Now().Add(10 * time.Second)
		for rs.snapshotGen() == gen || !rs.drained() {
			if time.Now().After(deadline) {
				t.Fatalf("slot %d: checkpoint barrier timed out", w.id)
			}
			time.Sleep(time.Millisecond)
		}
		si, err := dshard.DecodeSnapshotImage(rs.snapshotCut())
		if err != nil {
			t.Fatal(err)
		}
		slot, err := si.Slot()
		if err != nil {
			t.Fatal(err)
		}
		want := reportGauges(slot.Report())
		if want["sg_engine_partial_matches"] == 0 || want["sg_shard_replica_vertices"] == 0 {
			t.Fatalf("slot %d: the snapshot holds no partial matches or vertices; the check is vacuous", w.id)
		}
		// The barrier's done frame is published just after the snapshot
		// is adopted; nothing else is in flight.
		for {
			got := slotGauges(t, r.Metrics().Snapshot(), w.id)
			same := true
			for _, name := range restored {
				same = same && got[name] == want[name]
			}
			if same {
				break
			}
			if time.Now().After(deadline) {
				for _, name := range restored {
					if got[name] != want[name] {
						t.Errorf("slot %d: %s = %d, the slot rebuilt from its snapshot reports %d", w.id, name, got[name], want[name])
					}
				}
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestSlotGaugesDifferential pins the one gauge path: a remote slot,
// and a failed-over one (its in-process hospice engine), publish every
// per-slot gauge a local slot does, with the values a local slot owning
// the same queries and fed the same stream publishes.
func TestSlotGaugesDifferential(t *testing.T) {
	edges := testStream(2000)
	const window = 400
	run := func(cfg Config) []metrics.Sample {
		t.Helper()
		cfg.Window = window
		r := New(cfg)
		queries, strategies := testQueries(), testStrategies()
		for _, name := range sortedNames(queries) {
			if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
				t.Fatalf("register %s: %v", name, err)
			}
		}
		done := make(chan int64, 1)
		go func() { done <- r.Drain(nil) }()
		for lo := 0; lo < len(edges); lo += 64 {
			r.IngestBatch(edges[lo:min(lo+64, len(edges))])
		}
		r.Close()
		if <-done == 0 {
			t.Fatal("no matches; the differential is vacuous")
		}
		return r.Metrics().Snapshot()
	}
	want := slotGauges(t, run(Config{Shards: 1}), 0)
	for _, name := range []string{
		"sg_shard_replica_edges", "sg_shard_replica_stored", "sg_shard_replica_vertices", "sg_engine_edges_processed",
		"sg_engine_partial_matches", "sg_engine_tree_inserted", "sg_engine_tree_emitted", "sg_engine_pool_gets",
	} {
		if want[name] == 0 {
			t.Fatalf("local slot: %s = 0; the differential is vacuous", name)
		}
	}
	addr, _ := startRemoteWorker(t)
	// Nothing listens at dead: the slot fails over after its third
	// failed dial — ~150 ms of backoff, by when the registrations are
	// queued on it (an empty slot that fails over is retired at once) —
	// and runs on its hospice engine, there being no other slot to
	// evacuate to. The whole stream runs through the hospice.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	for _, tp := range []struct {
		name      string
		cfg       Config
		failovers int64
	}{
		{"remote", Config{Remotes: []string{addr}}, 0},
		{"failed-over", Config{Remotes: []string{dead}, RedialBudget: 3}, 1},
	} {
		samples := run(tp.cfg)
		if n := metricValue(t, samples, "sg_failovers_total"); n != tp.failovers {
			t.Fatalf("%s slot: sg_failovers_total = %d, want %d", tp.name, n, tp.failovers)
		}
		got := slotGauges(t, samples, 0)
		for name := range want {
			if got[name] != want[name] {
				t.Errorf("%s slot: %s = %d, a local slot publishes %d", tp.name, name, got[name], want[name])
			}
		}
	}
}

// TestStatsAndScrapeUnderIngest pins the read-side race surface: Stats,
// registry snapshots, Prometheus rendering and match-lag merges all
// poll concurrently with a saturating ingest (the package tests run
// under -race in CI).
func TestStatsAndScrapeUnderIngest(t *testing.T) {
	edges := testStream(4000)
	r := New(Config{Shards: 2, Window: 400})
	queries, strategies := testQueries(), testStrategies()
	for _, name := range sortedNames(queries) {
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drain(nil)
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, st := range r.Stats() {
					_ = st.EdgesRouted + st.MatchesEmitted
				}
				if err := r.Metrics().WritePrometheus(io.Discard); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				lag := r.MatchLag()
				_ = lag.Count()
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	for lo := 0; lo < len(edges); lo += 32 {
		hi := lo + 32
		if hi > len(edges) {
			hi = len(edges)
		}
		r.IngestBatch(edges[lo:hi])
	}
	close(stop)
	wg.Wait()
	r.Close()
	<-done
	if got := sumMetric(r.Metrics().Snapshot(), "sg_shard_edges_routed_total"); got == 0 {
		t.Fatal("no routed edges counted")
	}
}

// TestArrivalRing is the lag differential at the ring itself: whatever
// mix of batch sizes noted the arrivals, a cursor returns for every seq
// the instant its own ingest call was stamped with, in any lookup order;
// once per-edge Ingest has lapped the ring, the lapped seqs are reported
// lost — their matches still count, with no lag sample — and the rest
// stay exact.
func TestArrivalRing(t *testing.T) {
	// note stamps one call and returns the instant the ring holds for it.
	note := func(tel *telemetry, base uint64, n int) int64 {
		tel.noteArrivals(base, n)
		return tel.ring[(tel.calls.Load()-1)&lagRingMask].at.Load()
	}

	t.Run("batches", func(t *testing.T) {
		tel := newTelemetry()
		var want []int64 // seq -> arrival instant
		for call := 0; call < 300; call++ {
			n := 1 + call*7%64
			at := note(tel, uint64(len(want)), n)
			for i := 0; i < n; i++ {
				want = append(want, at)
			}
		}
		check := func(name string, cur *arrivalCursor, seq int) {
			t.Helper()
			if at, ok := cur.lookup(uint64(seq)); !ok || at != want[seq] {
				t.Fatalf("%s: seq %d arrived at (%d, %v), want %d", name, seq, at, ok, want[seq])
			}
		}
		up, down, hop := &arrivalCursor{t: tel}, &arrivalCursor{t: tel}, &arrivalCursor{t: tel}
		for seq := range want {
			check("ascending", up, seq)
			check("descending", down, len(want)-1-seq)
			check("scattered", hop, seq*7919%len(want))
		}
		if _, ok := up.lookup(uint64(len(want))); ok {
			t.Error("a seq no call has admitted yet has an arrival instant")
		}
	})

	t.Run("per-edge ingest laps the ring", func(t *testing.T) {
		tel := newTelemetry()
		const lapped = 100
		want := make([]int64, lagRingSize+lapped)
		for seq := range want {
			want[seq] = note(tel, uint64(seq), 1)
		}
		cur := &arrivalCursor{t: tel}
		for _, seq := range []int{lapped, len(want) - 1, lapped + 1, lagRingSize / 2} {
			if at, ok := cur.lookup(uint64(seq)); !ok || at != want[seq] {
				t.Errorf("seq %d arrived at (%d, %v), want %d", seq, at, ok, want[seq])
			}
		}
		for _, seq := range []int{lapped - 1, 0, lapped / 2} {
			if at, ok := cur.lookup(uint64(seq)); ok {
				t.Errorf("lapped seq %d still has an arrival instant %d", seq, at)
			}
		}
		if at, ok := cur.lookup(lapped); !ok || at != want[lapped] {
			t.Errorf("after the lapped lookups seq %d arrived at (%d, %v), want %d", lapped, at, ok, want[lapped])
		}
		// A block that straddles the lap: every match counted, only the
		// ones still in the ring sampled.
		block := make([]Match, 0, 2*lapped)
		for seq := 0; seq < 2*lapped; seq++ {
			block = append(block, Match{Query: "q", Seq: uint64(seq)})
		}
		tel.recordMatches(block)
		c, h := tel.queryCounters("q")
		if c.Load() != 2*lapped || h.Count() != lapped {
			t.Errorf("%d matches counted and %d lag samples, want %d and %d", c.Load(), h.Count(), 2*lapped, lapped)
		}
	})

	// Lookups racing the writer through several laps: a lookup either
	// reports the seq lost or returns an instant between the clock reads
	// the writer took around that very call.
	t.Run("concurrent", func(t *testing.T) {
		tel := newTelemetry()
		const calls = 3 * lagRingSize
		lo, hi := make([]atomic.Int64, calls), make([]atomic.Int64, calls)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				found := 0
				for i := 0; i < 1000 || tel.calls.Load() < calls; i++ {
					cur := arrivalCursor{t: tel}
					head := int(tel.calls.Load())
					for k := 0; k < 8; k++ {
						seq := head - 1 - (i*31+k*(g+1)*257)%(lagRingSize+64)
						if seq < 0 {
							continue
						}
						at, ok := cur.lookup(uint64(seq))
						if !ok {
							continue
						}
						found++
						if min, max := lo[seq].Load(), hi[seq].Load(); at < min || (max != 0 && at > max) {
							t.Errorf("seq %d arrived at %d, its call ran in [%d, %d]", seq, at, min, max)
							return
						}
					}
				}
				if found == 0 {
					t.Error("no lookup succeeded")
				}
			}(g)
		}
		for seq := 0; seq < calls; seq++ {
			lo[seq].Store(tel.now())
			tel.noteArrivals(uint64(seq), 1)
			hi[seq].Store(tel.now())
		}
		wg.Wait()
	})
}
