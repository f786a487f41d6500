// Router observability: every Router owns a metrics.Registry holding
// per-shard, per-query and (in durable or remote topologies) per-slot
// wire series, recorded from the hot paths without locks or
// allocations and scraped by the /metrics endpoint, the extended wire
// `stats full` command, and the experiment harness.
//
// End-to-end match lag is measured edge-arrival → match-emission
// through a fixed-size seq→arrival-time ring: IngestBatch stamps every
// admitted edge's arrival instant at ring slot seq mod lagRingSize
// (time first, then seq+1 as the slot tag), and each emission point
// reads tag/time/tag — a changed tag on either read means the slot was
// lapped by a newer edge and the sample is dropped rather than
// miscounted. With the default queue depths a lap needs >64k edges in
// flight between an edge's admission and a match it completes, so
// drops are rare; the per-query match counters are exact regardless.
package shard

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamgraph/internal/metrics"
)

const (
	// lagRingSize is the arrival-ring capacity in edges (must be a
	// power of two). 1<<16 slots cost ~1 MiB per router.
	lagRingSize = 1 << 16
	lagRingMask = lagRingSize - 1
)

// telemetry is the Router's observability state. All methods are safe
// for concurrent use.
type telemetry struct {
	reg  *metrics.Registry
	base time.Time // monotonic zero for all ring/lag arithmetic

	// The seq→arrival ring: ringSeqs[i] holds seq+1 (0 = never
	// written), ringTimes[i] the arrival instant in nanoseconds since
	// base. Written by IngestBatch under ingestMu, read lock-free by
	// every match-emission goroutine.
	ringSeqs  []atomic.Uint64
	ringTimes []atomic.Int64

	// Checkpoint/durability series, registered eagerly so the handles
	// are always non-nil (a volatile router simply never records).
	fsync      *metrics.AtomicHistogram
	ckptRound  *metrics.AtomicHistogram
	ckptRounds *metrics.Counter

	// Migration/failover series (migrate.go), also eager: a topology
	// that never migrates scrapes them at zero, which is what the
	// metric-truthfulness tests pin.
	migStarted   *metrics.Counter
	migCompleted *metrics.Counter
	migFailed    *metrics.Counter
	migBackfill  *metrics.Counter
	migDrain     *metrics.AtomicHistogram
	failovers    *metrics.Counter

	// Per-query series, created on a query's first match.
	lagMu  sync.RWMutex
	lagByQ map[string]*metrics.AtomicHistogram
	cntByQ map[string]*metrics.Counter
}

func newTelemetry() *telemetry {
	t := &telemetry{
		reg:       metrics.NewRegistry(),
		base:      time.Now(),
		ringSeqs:  make([]atomic.Uint64, lagRingSize),
		ringTimes: make([]atomic.Int64, lagRingSize),
		lagByQ:    make(map[string]*metrics.AtomicHistogram),
		cntByQ:    make(map[string]*metrics.Counter),
	}
	t.fsync = t.reg.Histogram("sg_edlog_fsync_ns")
	t.ckptRound = t.reg.Histogram("sg_checkpoint_round_ns")
	t.ckptRounds = t.reg.Counter("sg_checkpoint_rounds_total")
	t.migStarted = t.reg.Counter("sg_migrations_started_total")
	t.migCompleted = t.reg.Counter("sg_migrations_completed_total")
	t.migFailed = t.reg.Counter("sg_migrations_failed_total")
	t.migBackfill = t.reg.Counter("sg_migration_backfill_edges_total")
	t.migDrain = t.reg.Histogram("sg_migration_drain_ns")
	t.failovers = t.reg.Counter("sg_failovers_total")
	return t
}

// now returns nanoseconds since the telemetry base — a monotonic
// instant cheap enough for per-message stamping.
func (t *telemetry) now() int64 { return int64(time.Since(t.base)) }

// noteArrivals stamps the arrival instant of n edges admitted at base
// into the ring. Called under ingestMu (the single writer).
func (t *telemetry) noteArrivals(base uint64, n int) {
	now := t.now()
	for i := 0; i < n; i++ {
		seq := base + uint64(i)
		idx := seq & lagRingMask
		t.ringTimes[idx].Store(now)
		t.ringSeqs[idx].Store(seq + 1)
	}
}

// queryCounters returns (creating on first use) the per-query match
// counter and lag histogram.
func (t *telemetry) queryCounters(query string) (*metrics.Counter, *metrics.AtomicHistogram) {
	t.lagMu.RLock()
	c, h := t.cntByQ[query], t.lagByQ[query]
	t.lagMu.RUnlock()
	if c != nil {
		return c, h
	}
	t.lagMu.Lock()
	if c = t.cntByQ[query]; c == nil {
		c = t.reg.Counter("sg_matches_total", "query", query)
		h = t.reg.Histogram("sg_match_lag_ns", "query", query)
		t.cntByQ[query] = c
		t.lagByQ[query] = h
	} else {
		h = t.lagByQ[query]
	}
	t.lagMu.Unlock()
	return c, h
}

// recordMatches accounts one delivered block: the per-query counters
// always advance; an end-to-end lag sample records only when the
// completing edge's arrival stamp is still in the ring. One clock read
// serves the block and one handle lookup each run of matches of the
// same query.
func (t *telemetry) recordMatches(block []Match) {
	now := t.now()
	for lo := 0; lo < len(block); {
		hi := lo + 1
		for hi < len(block) && block[hi].Query == block[lo].Query {
			hi++
		}
		c, h := t.queryCounters(block[lo].Query)
		c.Add(int64(hi - lo))
		for _, m := range block[lo:hi] {
			idx := m.Seq & lagRingMask
			tag := m.Seq + 1
			if t.ringSeqs[idx].Load() != tag {
				continue // lapped: arrival instant lost, drop the sample
			}
			arr := t.ringTimes[idx].Load()
			if t.ringSeqs[idx].Load() != tag {
				continue // lapped between the two reads
			}
			h.Record(now - arr)
		}
		lo = hi
	}
}

// matchLag merges every query's lag histogram into one snapshot (the
// experiment harness's tail columns).
func (t *telemetry) matchLag() metrics.Histogram {
	t.lagMu.RLock()
	hs := make([]*metrics.AtomicHistogram, 0, len(t.lagByQ))
	for _, h := range t.lagByQ {
		hs = append(hs, h)
	}
	t.lagMu.RUnlock()
	var out metrics.Histogram
	for _, h := range hs {
		s := h.Snapshot()
		out.Merge(&s)
	}
	return out
}

// registerWorker wires one slot's series into the registry: the
// routed/gated/emitted counters and replica gauges Stats() reads, the
// queue gauges, the queue-wait and batch histograms, and — for local
// slots — the engine-internals gauges the worker goroutine publishes
// after each batch.
func (t *telemetry) registerWorker(w *worker) {
	sh := strconv.Itoa(w.id)
	w.edgesRouted = t.reg.Counter("sg_shard_edges_routed_total", "shard", sh)
	w.edgesGated = t.reg.Counter("sg_shard_edges_gated_total", "shard", sh)
	w.edgesBackfilled = t.reg.Counter("sg_shard_edges_backfilled_total", "shard", sh)
	w.matchesEmitted = t.reg.Counter("sg_shard_matches_emitted_total", "shard", sh)
	w.replicaLive = t.reg.Gauge("sg_shard_replica_edges", "shard", sh)
	w.replicaStored = t.reg.Gauge("sg_shard_replica_stored", "shard", sh)
	w.replicaTypes = t.reg.Gauge("sg_shard_replica_types", "shard", sh)
	w.queueWait = t.reg.Histogram("sg_shard_queue_wait_ns", "shard", sh)
	w.batchTime = t.reg.Histogram("sg_shard_process_batch_ns", "shard", sh)
	t.reg.GaugeFunc("sg_shard_queue_depth", func() int64 { return int64(len(w.in)) }, "shard", sh)
	t.reg.GaugeFunc("sg_shard_queue_cap", func() int64 { return int64(cap(w.in)) }, "shard", sh)
	// Stats().Load in thousandths (the registry holds integers).
	t.reg.GaugeFunc("sg_shard_estimated_load", func() int64 {
		w.r.mu.Lock()
		defer w.r.mu.Unlock()
		return int64(math.Round(w.r.slotLoads("", nil)[w] * 1000))
	}, "shard", sh)
	if w.slot == nil {
		return
	}
	w.engEdges = t.reg.Gauge("sg_engine_edges_processed", "shard", sh)
	w.engPartial = t.reg.Gauge("sg_engine_partial_matches", "shard", sh)
	w.replicaVertices = t.reg.Gauge("sg_shard_replica_vertices", "shard", sh)
	w.replicaVertexSlots = t.reg.Gauge("sg_shard_replica_vertex_slots", "shard", sh)
	w.treeInserted = t.reg.Gauge("sg_engine_tree_inserted", "shard", sh)
	w.treeDeduped = t.reg.Gauge("sg_engine_tree_deduped", "shard", sh)
	w.treeEmitted = t.reg.Gauge("sg_engine_tree_emitted", "shard", sh)
	w.treeEvicted = t.reg.Gauge("sg_engine_tree_evicted", "shard", sh)
	w.poolGets = t.reg.Gauge("sg_engine_pool_gets", "shard", sh)
	w.poolFresh = t.reg.Gauge("sg_engine_pool_fresh", "shard", sh)
}

// registerRouter wires the router-level series: admitted edges, the
// collection path, and the emitted/consumed delivery counters.
func (t *telemetry) registerRouter(r *Router) {
	t.reg.CounterFunc("sg_router_edges_admitted_total", func() int64 { return int64(r.seq.Load()) })
	t.reg.CounterFunc("sg_router_matches_emitted_total", r.emitted.Load)
	t.reg.CounterFunc("sg_router_matches_consumed_total", r.consumed.Load)
	// Both in matches, like Config.OutLen: what has been emitted and
	// not yet consumed, against the most a stalled consumer lets
	// accumulate — the collection budget, one block in each slot's
	// hands and the block whose callbacks are running.
	t.reg.GaugeFunc("sg_router_out_depth", func() int64 {
		consumed := r.consumed.Load() // first: a match is emitted before it is consumed
		return r.emitted.Load() - consumed
	})
	t.reg.GaugeFunc("sg_router_out_cap", func() int64 { return int64(max(r.cfg.OutLen, blockSize) + (r.NumShards()+1)*blockSize) })
}

// Metrics returns the router's live metrics registry — the substrate
// behind the /metrics endpoint and the wire `stats full` command.
// Recording continues while it is read; snapshots are point-in-time.
func (r *Router) Metrics() *metrics.Registry { return r.tel.reg }

// MatchLag returns a merged snapshot of every query's end-to-end match
// lag (edge arrival at the router → match emission on the collection
// channel), in nanoseconds.
func (r *Router) MatchLag() metrics.Histogram { return r.tel.matchLag() }
