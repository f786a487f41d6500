// Router observability: every Router owns a metrics.Registry holding
// per-shard, per-query and (in durable or remote topologies) per-slot
// wire series, recorded from the hot paths without locks or
// allocations and scraped by the /metrics endpoint, the extended wire
// `stats full` command, and the experiment harness.
//
// End-to-end match lag is measured edge-arrival → match-emission
// through a fixed-size ring of ingest calls: every edge of one
// IngestBatch arrives at the same instant, so the call stamps one
// {base, end, instant} slot (arrivalSlot) and an emission point finds
// the slot whose [base, end) holds a match's seq by walking back from
// the newest call — once per block; the matches of a block sit in the
// same or neighbouring calls. A slot is read tag/fields/tag and its
// neighbour must adjoin it; a changed tag or a gap means the ring has
// been lapped and the sample is dropped rather than miscounted. A lap
// needs more than lagRingSize ingest calls in flight between an edge's
// admission and a match it completes — with the default queue depths
// only per-edge Ingest against a stalled consumer gets there — and the
// per-query match counters are exact regardless.
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
	// lagRingSize is the arrival-ring capacity in ingest calls (must be
	// a power of two). 1<<12 slots cost 96 KiB per router.
	lagRingSize = 1 << 12
	lagRingMask = lagRingSize - 1
)

// arrivalSlot is one ingest call in the arrival ring: the seqs
// [base, end) it admitted and their arrival instant in nanoseconds
// since telemetry.base. end doubles as the slot's tag — it is unique to
// the call, and 0 while the slot is being rewritten.
type arrivalSlot struct {
	end  atomic.Uint64
	base atomic.Uint64
	at   atomic.Int64
}

// read returns the slot's call; ok is false when a writer got in
// between the two tag reads (or the slot was never written).
func (s *arrivalSlot) read() (base, end uint64, at int64, ok bool) {
	end = s.end.Load()
	base, at = s.base.Load(), s.at.Load()
	return base, end, at, end != 0 && s.end.Load() == end
}

// telemetry is the Router's observability state. All methods are safe
// for concurrent use.
type telemetry struct {
	reg  *metrics.Registry
	base time.Time // monotonic zero for all ring/lag arithmetic

	// The arrival ring: call number c (0-based) is at ring[c mod
	// lagRingSize], calls counts the calls noted so far. Written by
	// IngestBatch under ingestMu, read lock-free by every
	// match-emission goroutine.
	ring  []arrivalSlot
	calls atomic.Uint64

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
		reg:    metrics.NewRegistry(),
		base:   time.Now(),
		ring:   make([]arrivalSlot, lagRingSize),
		lagByQ: make(map[string]*metrics.AtomicHistogram),
		cntByQ: make(map[string]*metrics.Counter),
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

// noteArrivals stamps one ingest call — n edges admitted at base, now —
// into the ring. Called under ingestMu (the single writer).
func (t *telemetry) noteArrivals(base uint64, n int) {
	call := t.calls.Load()
	s := &t.ring[call&lagRingMask]
	s.end.Store(0)
	s.base.Store(base)
	s.at.Store(t.now())
	s.end.Store(base + uint64(n))
	t.calls.Store(call + 1)
}

// arrivalCursor looks up the arrival instants of one block's matches:
// it remembers the call it last found, so a block costs one walk back
// from the newest call and a step or none per match after that.
type arrivalCursor struct {
	t         *telemetry
	call      uint64 // ring position of the slot held below
	base, end uint64 // its seqs; end == 0 before the first lookup
	at        int64
	lostBelow uint64 // seqs under this are known to be lapped
}

// lookup returns the arrival instant of the edge with arrival index
// seq, false when the ring no longer holds its call.
func (c *arrivalCursor) lookup(seq uint64) (int64, bool) {
	for seq < c.base || seq >= c.end {
		if seq < c.lostBelow {
			return 0, false
		}
		next := c.call - 1 // the older neighbour (wraps past call 0, caught below)
		switch {
		case c.end == 0:
			next = c.t.calls.Load() - 1
		case seq >= c.end:
			next = c.call + 1
		}
		if next >= c.t.calls.Load() {
			return 0, false // before the first call, or not noted yet
		}
		base, end, at, ok := c.t.ring[next&lagRingMask].read()
		if ok && c.end != 0 {
			// A neighbour adjoins the slot it was reached from, or the
			// ring has been lapped in between.
			ok = (next < c.call && end == c.base) || (next > c.call && base == c.end)
		}
		if !ok {
			if next < c.call {
				c.lostBelow = c.base
			}
			return 0, false
		}
		c.call, c.base, c.end, c.at = next, base, end, at
	}
	return c.at, true
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

// recordMatches accounts one block about to be delivered: the
// per-query counters always advance; an end-to-end lag sample records
// only when the completing edge's ingest call is still in the ring. One
// clock read and one walk of the ring serve the block, and one handle
// lookup each run of matches of the same query.
func (t *telemetry) recordMatches(block []Match) {
	now := t.now()
	cur := arrivalCursor{t: t}
	for lo := 0; lo < len(block); {
		hi := lo + 1
		for hi < len(block) && block[hi].Query == block[lo].Query {
			hi++
		}
		c, h := t.queryCounters(block[lo].Query)
		c.Add(int64(hi - lo))
		for i := lo; i < hi; i++ {
			if arr, ok := cur.lookup(block[i].Seq); ok {
				h.Record(now - arr)
			}
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
