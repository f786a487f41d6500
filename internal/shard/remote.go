// Shard slots: one slot loop (worker.loop) for every slot. It writes
// the messages Router.admit stamped, off the slot's bounded queue, to a
// transport: an in-process dshard.Host for a local slot, which answers
// before the write returns, or a dshard.Conn to a remote shard worker
// (cmd/sgshard), whose answers a reader goroutine settles as they
// stream back. handleDone settles a done the same way for both: pop the
// frame, apply its control event, publish the gauges, deliver the
// matches, reply. An in-process frame's matches are resolved straight
// into collection blocks, nothing encoded or copied; a connection's are
// buffered on their frame until its done, so delivery is atomic per
// frame. Neither the loop nor the reader waits on the other: a stalled
// consumer backpressures the reader, then the worker, then ingest.
//
// The transport decides whether the slot keeps a replay entitlement.
// One that can drop — a connection — does: the slot retains its control
// events, pins the shared EdgeLog and periodically asks for a snapshot.
// One that cannot — an in-process host — keeps none: noteControl
// records its events without retaining them, and its pins stay unset.
//
// Exactly-once across reconnects. The remote worker keeps no state
// between connections. On every new connection the slot replays, in
// arrival-seq order, every retained log batch and every non-retired
// control event (rebuild); frames whose matches were already delivered
// are marked suppress — processed fully, matches discarded. A
// connection dying mid-frame therefore loses nothing (the frame replays
// unsuppressed) and duplicates nothing (delivered frames replay
// suppressed). The EdgeLog is pinned below each retained registration's
// window floor and the oldest unacknowledged batch: the entitlement.
//
// Snapshots bound the entitlement, which a long-lived registration's
// frozen floor would otherwise make unbounded. The checkpoint cadence
// sends a checkpoint frame down the same FIFO pipeline and the worker
// answers with an image of its engine, so when its done arrives every
// previously acknowledged frame is inside the image: the slot retires
// every acknowledged control event, records the image's stream position
// (deliveredEnd then), and the pin recomputes from the remainder. A
// reconnect restores the image and replays just the log tail past it.
//
// Failover. A remote slot whose redial budget runs out
// (Config.RedialBudget) switches to an in-process host over a fresh
// engine, rebuilt by the same replay — snapshot, retained events, log
// tail, with suppress — and, now unable to drop, releases its
// entitlement at once.
package shard

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/dshard"
	"streamgraph/internal/graph"
	"streamgraph/internal/metrics"
	"streamgraph/internal/stream"
)

const (
	remoteDialTimeout = 5 * time.Second
	remoteRedialMin   = 50 * time.Millisecond
	remoteRedialMax   = time.Second
)

// WireMode is the type of Config.Wire, which has no effect: every
// dshard connection speaks the one encoding.
type WireMode int

// WireAuto is Config.Wire's zero value, the only mode.
const WireAuto WireMode = 0

// remoteChunkBytes bounds the estimated payload of one edge-carrying
// frame on a connection (edge batches and register backfills split into
// continuation frames beyond it), keeping every frame far from the
// protocol's MaxFrame limit no matter how large an ingest batch or a
// re-registration backfill grows. A single edge cannot be split, so
// edges whose strings approach MaxFrame (64 MiB) are unsendable — no
// ingestion surface can produce one (stream.Reader caps lines at
// 4 MiB, the TCP server at 1 MiB); library callers ingesting
// synthetic edges of that size would stall the slot. Variable so
// tests can force heavy chunking on small workloads.
var remoteChunkBytes = 16 << 20

// chunkLen is the length of the first frame-sized chunk of edges: the
// longest prefix, at least one edge, whose estimated encoded size stays
// under remoteChunkBytes (40 bytes per edge cover the worst-case
// framing: five uvarint length prefixes and a zigzag timestamp).
// Exactness never depends on chunk boundaries. An in-process host has
// no frame limit: its chunk is the whole slice.
func (w *worker) chunkLen(edges []stream.Edge) int {
	if w.liveConn.Load() == nil {
		return len(edges)
	}
	size := 0
	for i, e := range edges {
		size += len(e.Src) + len(e.SrcLabel) + len(e.Dst) + len(e.DstLabel) + len(e.Type) + 40
		if size >= remoteChunkBytes {
			return i + 1
		}
	}
	return len(edges)
}

// transport carries a slot's messages to its engine's host, one frame
// each: a *dshard.Conn to a remote shard worker, or an in-process
// *dshard.Host, which answers through the worker (its dshard.Replier
// methods) before the write returns.
type transport interface {
	WriteEdges(dshard.Edges) error
	WriteRegister(dshard.Register) error
	WriteBackfill(dshard.BackfillChunk) error
	WriteUnregister(dshard.Unregister) error
	WriteCheckpoint(dshard.Checkpoint) error
	WriteRestore(dshard.Restore) error
	WriteCloseStream(dshard.CloseStream) error
}

// remoteEvent is one admitted control message (register/unregister) of
// a slot: what its frame settles, and — on a slot that keeps a replay
// entitlement — retained until a reconnect replay can never need it
// again.
type remoteEvent struct {
	msg message
	reg *remoteEvent // unregister: the registration it retires

	acked   bool // done received; its matches were delivered
	sent    bool // sent on the current connection
	replied bool // reply channel satisfied
}

// remoteSpan tracks one edge batch enqueued to the slot and not yet
// acknowledged; its minTS pins the EdgeLog for replay.
type remoteSpan struct {
	base  uint64
	end   uint64
	minTS int64
}

// inflightFrame is one frame written on the current transport whose
// done has not been settled; a connection's matches buffer here until
// it is.
type inflightFrame struct {
	id        uint64
	kind      msgKind
	ev        *remoteEvent
	base, end uint64 // msgEdges
	backfill  int    // msgRegister: backfill edges the register carries
	suppress  bool
	closing   bool
	matches   []Match
	snapData  []byte // the snapshot's payload: a checkpoint's image, a handed-over state
	sentAt    int64  // telemetry.now at push; ack round-trip = done pop - sentAt
}

// worker is one shard slot: its router-side state — the ingest gate,
// the footprint refcounts, the queue, the counters and gauges — and the
// slot loop (loop) that drives its engine through a transport. The slot
// engine only applies what Router.admit stamped on each control
// message.
type worker struct {
	id      int
	r       *Router
	in      chan message
	bundles chan bundle // ordered mode only

	// addr is the remote shard worker the slot dials; "" for a local
	// slot, whose engine runs in-process from the start.
	addr string

	// slot is the engine an in-process host drives: a local slot's from
	// the start, a failed-over remote slot's from its failover on, nil
	// before. The slot goroutine owns it once the loop runs.
	slot *dshard.Slot
	// pend is the slot goroutine's scratch list of one in-process frame's
	// engine matches awaiting resolution into blocks.
	pend []pendingMatch
	// exit is the current transport's end: a connection's reader sends
	// once when it exits (true after the close barrier's done), an
	// in-process host's done of the close barrier sends true.
	exit chan bool

	// file is the slot's checkpoint file on a durable router: set by
	// Open for the slots it restores from one (the local slots), "" for
	// every other slot.
	file string

	// retired marks a slot removed from the topology (RemoveSlot, or a
	// failover evacuation): its queue is closed, it receives no further
	// edges or control messages, and it holds no replay entitlement.
	// Guarded by ingestMu; slot ids are stable, so a retired slot stays
	// in r.workers as a tombstone.
	retired bool

	// gate is the router-side ingest filter: the edge types this shard
	// has any interest in. Read and written under r.ingestMu only; the
	// TypeSet value itself is immutable (copy-on-write), so swapping it
	// never disturbs a concurrent reader of the old set.
	gate     graph.TypeSet
	gateRefs *replicaSet // router-side footprint refcounts (ingestMu)

	// replays is set while the slot's transport can drop, hence while it
	// keeps a replay entitlement (events, spans, snapshot, log pins). It
	// only ever goes from true to false, under mu: at a failover or a
	// retirement.
	replays atomic.Bool

	// pin caches pinFloorLocked so the router's ingest path reads it
	// with one atomic load instead of taking mu and scanning events on
	// every windowed batch; recomputed whenever events or the span head
	// change (control admissions, retirements, acknowledgments).
	pin atomic.Int64

	// cover caches the snapshot's stream position (MaxUint64 while no
	// snapshot exists) so the router's ingest-path trim reads the
	// seq-based pin with one atomic load, like pin.
	cover atomic.Uint64

	mu           sync.Mutex
	frameID      uint64
	events       []*remoteEvent          // replay set: admitted, non-retired, seq order
	regs         map[string]*remoteEvent // live registration by name
	spans        []remoteSpan
	deliveredEnd uint64
	inflight     []inflightFrame // FIFO from inflight[head]
	head         int

	// wake is poked (never blocking) after each done a connection's
	// reader settles, so the slot loop re-checks admission and the close
	// barrier.
	wake chan struct{}

	// The latest engine snapshot the worker produced: the opaque image,
	// the stream position it covers (deliveredEnd when its checkpoint
	// was acknowledged), and the replica filter it embeds. A reconnect
	// restores it and replays only the log tail past snapSeq.
	snap          []byte
	snapSeq       uint64
	snapUniversal bool
	snapTypes     []string
	// ackUniversal/ackTypes track the replica filter as of the last
	// acknowledged control event — exactly what a snapshot taken at the
	// current pipeline position embeds. Recorded at checkpoint
	// acknowledgment so the rebuild's admits-union always includes the
	// snapshot engine's own filter.
	ackUniversal bool
	ackTypes     []string

	// unreachable is set while the slot's last dial failed, cleared by
	// the next successful one or a failover; migrateLocked refuses an
	// unreachable source.
	unreachable atomic.Bool

	// Registry-backed slot series (handles created by
	// telemetry.registerWorker; recording is atomic and lock-free).
	edgesRouted     *metrics.Counter
	edgesGated      *metrics.Counter
	edgesBackfilled *metrics.Counter
	matchesEmitted  *metrics.Counter
	queueWait       *metrics.AtomicHistogram
	batchTime       *metrics.AtomicHistogram

	// The slot's gauges (dshard.Report), set only by publish: the slot
	// engine is single-writer state no scrape may touch directly.
	replicaLive, replicaStored, replicaTypes            *metrics.Gauge
	engEdges, engPartial                                *metrics.Gauge
	replicaVertices, replicaVertexSlots                 *metrics.Gauge
	treeInserted, treeDeduped, treeEmitted, treeEvicted *metrics.Gauge
	poolGets, poolFresh                                 *metrics.Gauge

	// Wire telemetry of a slot that dials (registerMetrics; nil for a
	// local slot). liveConn tracks the current connection so scrape-time
	// wire totals can add its live counters to the closed-connection
	// accumulators below.
	connects *metrics.Counter
	replayed *metrics.Counter
	ackRTT   *metrics.AtomicHistogram
	liveConn atomic.Pointer[dshard.Conn]
	closedBytesIn, closedBytesOut,
	closedFramesIn, closedFramesOut atomic.Int64
}

// newWorker builds slot id: a local slot over a fresh slot engine, or
// with addr one that dials the remote shard worker there, and its
// router-side state. A filtered slot starts with no queries, hence an
// empty footprint: it receives and stores nothing until one is
// registered.
func (r *Router) newWorker(id int, addr string) *worker {
	w := &worker{
		id: id, r: r, in: make(chan message, r.cfg.QueueLen), addr: addr,
		regs: make(map[string]*remoteEvent), wake: make(chan struct{}, 1),
	}
	w.pin.Store(math.MaxInt64)
	w.cover.Store(math.MaxUint64)
	w.ackUniversal = !r.filtering
	if addr == "" {
		w.newSlot()
	} else {
		w.replays.Store(true)
		w.registerMetrics(r.tel)
	}
	r.tel.registerWorker(w)
	if r.filtering {
		w.gate = graph.NewTypeSet()
		w.gateRefs = newReplicaSet()
	} else {
		w.gate = graph.UniversalTypes()
		w.replicaTypes.Set(-1)
	}
	if r.cfg.Ordered {
		w.bundles = make(chan bundle, r.cfg.QueueLen)
	}
	return w
}

// newSlot gives the slot a fresh, empty engine: what a remote worker
// builds from the hello.
func (w *worker) newSlot() {
	w.slot = dshard.NewSlot(core.NewMulti(core.MultiConfig{Window: w.r.cfg.Window}), !w.r.filtering)
}

// registerMetrics wires the slot's dshard series into the router
// registry: connect/replay counters, ack round-trip, and scrape-time
// wire byte/frame totals folding the live connection into the closed
// accumulators.
func (w *worker) registerMetrics(t *telemetry) {
	sh := strconv.Itoa(w.id)
	w.connects = t.reg.Counter("sg_dshard_connects_total", "shard", sh)
	w.replayed = t.reg.Counter("sg_dshard_replayed_edges_total", "shard", sh)
	w.ackRTT = t.reg.Histogram("sg_dshard_ack_rtt_ns", "shard", sh)
	wire := func(acc *atomic.Int64, live func(dshard.ConnStats) int64) func() int64 {
		return func() int64 {
			v := acc.Load()
			if c := w.liveConn.Load(); c != nil {
				v += live(c.Stats())
			}
			return v
		}
	}
	bytesIn := wire(&w.closedBytesIn, func(s dshard.ConnStats) int64 { return s.BytesIn })
	bytesOut := wire(&w.closedBytesOut, func(s dshard.ConnStats) int64 { return s.BytesOut })
	t.reg.CounterFunc("sg_dshard_bytes_in_total", bytesIn, "shard", sh)
	t.reg.CounterFunc("sg_dshard_bytes_out_total", bytesOut, "shard", sh)
	// Nothing compresses frames, so the raw series count the same bytes;
	// they stay for the readers that still divide by them.
	t.reg.CounterFunc("sg_dshard_raw_bytes_in_total", bytesIn, "shard", sh)
	t.reg.CounterFunc("sg_dshard_raw_bytes_out_total", bytesOut, "shard", sh)
	t.reg.CounterFunc("sg_dshard_frames_in_total", wire(&w.closedFramesIn, func(s dshard.ConnStats) int64 { return s.FramesIn }), "shard", sh)
	t.reg.CounterFunc("sg_dshard_frames_out_total", wire(&w.closedFramesOut, func(s dshard.ConnStats) int64 { return s.FramesOut }), "shard", sh)
	// Dictionary gauges describe the CURRENT connection (dictionaries
	// are per connection by design — a reconnect starts empty), so
	// they read the live conn only and report 0 while disconnected.
	dict := func(live func(dshard.ConnStats) int64) func() int64 {
		return func() int64 {
			if c := w.liveConn.Load(); c != nil {
				return live(c.Stats())
			}
			return 0
		}
	}
	t.reg.GaugeFunc("sg_dshard_dict_entries_out", dict(func(s dshard.ConnStats) int64 { return s.DictEntriesOut }), "shard", sh)
	t.reg.GaugeFunc("sg_dshard_dict_bytes_out", dict(func(s dshard.ConnStats) int64 { return s.DictBytesOut }), "shard", sh)
	t.reg.GaugeFunc("sg_dshard_dict_entries_in", dict(func(s dshard.ConnStats) int64 { return s.DictEntriesIn }), "shard", sh)
	t.reg.GaugeFunc("sg_dshard_dict_bytes_in", dict(func(s dshard.ConnStats) int64 { return s.DictBytesIn }), "shard", sh)
}

// closeConn closes the slot's connection, if it has one, folding its
// wire counters into the closed accumulators.
func (w *worker) closeConn() {
	c := w.liveConn.Swap(nil)
	if c == nil {
		return
	}
	c.Close()
	st := c.Stats()
	w.closedBytesIn.Add(st.BytesIn)
	w.closedBytesOut.Add(st.BytesOut)
	w.closedFramesIn.Add(st.FramesIn)
	w.closedFramesOut.Add(st.FramesOut)
}

// noteControl records an admitted control event (register or
// unregister) on msg and pairs an unregister with its registration;
// a slot that keeps a replay entitlement also retains it for replay.
// Called under the router's ingestMu, before the message is enqueued
// (Router.send), so a concurrent rebuild can never miss an admitted
// event.
func (w *worker) noteControl(msg *message) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ev := &remoteEvent{msg: *msg}
	msg.revent = ev
	ev.msg.revent = ev
	if w.replays.Load() {
		w.events = append(w.events, ev)
	}
	if msg.kind == msgRegister {
		w.regs[msg.name] = ev
		w.recomputePinLocked()
		return
	}
	// The registration may already be gone: its register frame can have
	// errored (and been retired) while this Unregister raced the
	// Register's reply. Only a live entry pairs.
	if reg, ok := w.regs[msg.name]; ok {
		ev.reg = reg
		delete(w.regs, msg.name)
	}
}

// noteEnqueuedEdges records an admitted edge batch (under ingestMu,
// before the enqueue) on a slot that keeps a replay entitlement (one
// noted as the slot fails over pops when its batch settles in-process).
func (w *worker) noteEnqueuedEdges(base, end uint64, minTS int64) {
	if !w.replays.Load() {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.spans = append(w.spans, remoteSpan{base: base, end: end, minTS: minTS})
	if len(w.spans) == 1 {
		// Appending behind an existing head leaves the floor unchanged;
		// only a new head can lower it. Keeps the per-batch ingest cost
		// O(1) instead of O(live registrations).
		w.recomputePinLocked()
	}
}

// pinFloor reports the oldest timestamp the EdgeLog must retain for
// this slot: the window floor of every uncovered registration (a
// reconnect re-backfills from the registration floor until a snapshot
// covers it) and the oldest unacknowledged batch. MaxInt64 when
// nothing is pinned — always, on a slot that keeps no entitlement.
// Lock-free — the router calls it on every windowed ingest.
func (w *worker) pinFloor() int64 { return w.pin.Load() }

// coveredSeq reports the stream position the slot's engine snapshot
// covers — the EdgeLog must retain every segment past it for the
// reconnect tail replay, which must be gap-free (a skipped batch would
// leave its edges out of the restored replica).
// MaxUint64 while no snapshot exists: then nothing is pinned by seq
// and the slot's entitlement is purely the timestamp floor above.
// Lock-free, read on every windowed ingest.
func (w *worker) coveredSeq() uint64 { return w.cover.Load() }

// recomputePinLocked refreshes the cached pin floor. Caller holds
// w.mu.
func (w *worker) recomputePinLocked() {
	floor := int64(math.MaxInt64)
	for _, ev := range w.events {
		if ev.msg.kind == msgRegister && ev.msg.minTS < floor {
			floor = ev.msg.minTS
		}
	}
	if len(w.spans) > 0 && w.spans[0].minTS < floor {
		floor = w.spans[0].minTS
	}
	w.pin.Store(floor)
}

// oldestUnackedBase reports the base seq of the oldest unacknowledged
// edge batch (MaxUint64 when none): the durable log must retain from
// it onward so a reconnect replay can resend those batches. Not a hot
// path — only the checkpoint round reads it.
func (w *worker) oldestUnackedBase() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.spans) == 0 {
		return math.MaxUint64
	}
	return w.spans[0].base
}

func (w *worker) pendingSpans() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.spans)
}

// settleLocked applies a control event's first acknowledgment, with
// the worker's error ("" for none), to the replay set:
//   - A failed registration never took effect remotely: it goes.
//   - A refused handover left the query on the slot: the unregister
//     goes, and the registration it had paired with is live again.
//   - An unregister retires together with its registration only while
//     that registration's event is still retained. Otherwise a
//     snapshot holds the query, and a reconnect that restores it must
//     replay the unregister (suppressed) or the query comes back — so
//     the unregister stays until a later snapshot covers it
//     (adoptSnapshotLocked retires it with the other acknowledged
//     events).
//
// Caller holds w.mu.
func (w *worker) settleLocked(ev *remoteEvent, errText string) {
	defer w.recomputePinLocked()
	if errText == "" {
		// The worker applied this event's post-filter; a snapshot taken
		// at the current pipeline position will embed it.
		w.ackUniversal, w.ackTypes = ev.msg.postUniversal, ev.msg.postTypes
	}
	switch {
	case ev.msg.kind == msgRegister:
		if errText != "" {
			w.dropLocked(ev)
			if w.regs[ev.msg.name] == ev {
				delete(w.regs, ev.msg.name)
			}
		}
	case errText != "":
		w.dropLocked(ev)
		if ev.reg != nil {
			w.regs[ev.msg.name] = ev.reg
		}
	case ev.reg == nil || w.dropLocked(ev.reg):
		w.dropLocked(ev)
	}
}

// dropLocked removes one event from the replay set and reports whether
// the set held it. Caller holds w.mu.
func (w *worker) dropLocked(ev *remoteEvent) bool {
	for i, e := range w.events {
		if e == ev {
			w.events = append(w.events[:i], w.events[i+1:]...)
			return true
		}
	}
	return false
}

// dropReplay releases the slot's replay entitlement for good — its
// retained events, spans and snapshot, and every log pin they held —
// when its transport can no longer drop (a failover) or it leaves the
// topology (a retirement: it owns no registrations and will never be
// re-backfilled). Without this a retired slot's last snapshot position
// would pin the EdgeLog by seq forever.
func (w *worker) dropReplay() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.replays.Store(false)
	w.events, w.spans, w.snap = nil, nil, nil
	w.pin.Store(math.MaxInt64)
	w.cover.Store(math.MaxUint64)
}

// loop is the slot loop, one per slot whatever its transport. It only
// writes: an in-process host answers each message before the write
// returns, and a connection's reader settles what comes back and wakes
// the loop when a done may have changed admission or the close barrier.
func (w *worker) loop() {
	defer w.r.wg.Done()
	var (
		tr        transport
		redial    <-chan time.Time
		backoff   = remoteRedialMin
		sentEnd   uint64
		inClosed  bool
		closeSent bool
		dialFails int // consecutive dial failures, vs Config.RedialBudget
	)
	if w.addr == "" {
		tr = w.inProcess()
	} else {
		redial = time.After(0)
	}
	drop := func() {
		w.closeConn()
		tr = nil
		if w.exit != nil {
			// The reader exits on the closed connection once it has
			// settled the frame it holds; wait for it so no stale frame
			// can land in the inflight FIFO after connLost clears it.
			<-w.exit
			w.exit = nil
		}
		closeSent = false
		w.connLost()
		redial = time.After(backoff)
		if backoff *= 2; backoff > remoteRedialMax {
			backoff = remoteRedialMax
		}
	}
	for {
		// Admit new input only under the pending cap; a full slot queue
		// then backpressures the router.
		var inCh chan message
		if !inClosed && w.pendingSpans() < w.r.cfg.RemotePending {
			inCh = w.in
		}
		if inClosed && tr != nil && !closeSent && w.drained() {
			id := w.pushInflight(inflightFrame{kind: msgEdges, closing: true})
			if err := tr.WriteCloseStream(dshard.CloseStream{Frame: id, FinalSeq: w.r.seq.Load()}); err != nil {
				drop()
				continue
			}
			closeSent = true
		}
		if inClosed && tr == nil && w.drained() && w.idle() {
			// Nothing was ever entrusted to the remote that still
			// matters; no need to reconnect just to say goodbye.
			w.finish()
			return
		}

		select {
		case msg, ok := <-inCh:
			if !ok {
				inClosed = true
				continue
			}
			if msg.kind == msgEdges && msg.enq != 0 {
				w.queueWait.Record(w.r.tel.now() - msg.enq)
			}
			if !w.sendLive(tr, msg, &sentEnd) {
				drop()
			}
		case <-w.wake: // a done settled: re-check admission and the close barrier
		case fin := <-w.exit:
			w.exit = nil
			if fin {
				w.finish()
				return
			}
			drop()
		case <-redial:
			redial = nil
			c, err := w.connect()
			w.unreachable.Store(err != nil)
			if err != nil {
				if budget := w.r.cfg.RedialBudget; budget > 0 {
					if dialFails++; dialFails >= budget {
						// The peer is declared dead: run the slot
						// in-process, rebuilt from its entitlement (no
						// match lost), and evacuate its registrations to
						// the surviving slots.
						if h, end, ok := w.adoptHospice(); ok {
							tr, sentEnd = h, end
							w.r.tel.failovers.Inc()
							go w.r.failoverEvacuate(w)
							continue
						}
					}
				}
				redial = time.After(backoff)
				if backoff *= 2; backoff > remoteRedialMax {
					backoff = remoteRedialMax
				}
				continue
			}
			dialFails = 0
			backoff = remoteRedialMin
			tr = c
			w.connects.Inc()
			w.liveConn.Store(c)
			w.exit = make(chan bool, 1)
			go w.reader(c, w.exit)
			var ok bool
			if sentEnd, ok = w.rebuild(tr); !ok {
				drop()
			}
		}
	}
}

// inProcess returns an in-process host over the slot's engine, the
// worker taking its answers.
func (w *worker) inProcess() *dshard.Host {
	w.exit = make(chan bool, 1)
	return dshard.NewHost(w.slot, w)
}

// adoptHospice fails the slot over to an in-process host over a fresh
// engine, rebuilt from the slot's entitlement as a reconnect rebuilds a
// remote worker, and drops the entitlement: the host cannot drop. It
// returns the host and the log position the rebuild covered. Only a
// snapshot the host cannot restore fails it: the slot then stays down,
// as a connection whose restore fails does, until the next failed
// redial.
func (w *worker) adoptHospice() (*dshard.Host, uint64, bool) {
	w.newSlot()
	h := w.inProcess()
	end, ok := w.rebuild(h)
	if !ok {
		w.exit = nil
		w.connLost()
		return nil, 0, false
	}
	w.dropReplay()
	w.unreachable.Store(false)
	return h, end, true
}

// finish closes the slot down after the close barrier (or when no
// remote state exists): bundles close so an ordered merge completes.
func (w *worker) finish() {
	if w.bundles != nil {
		close(w.bundles)
	}
	w.closeConn()
}

// drained reports whether every admitted message has been acknowledged.
func (w *worker) drained() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.spans) > 0 || len(w.inflight) > w.head {
		return false
	}
	for _, ev := range w.events {
		if !ev.acked {
			return false
		}
	}
	return true
}

// idle reports whether the slot's engine holds no state worth a final
// close barrier: no live registrations means no queries, hence no
// pending repairs and no matches to flush.
func (w *worker) idle() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.regs) == 0
}

// connLost resets per-connection state: unacknowledged frames are
// forgotten (their buffered matches with them — they will be
// regenerated by the replay) and every event becomes resendable.
func (w *worker) connLost() {
	w.mu.Lock()
	defer w.mu.Unlock()
	clear(w.inflight)
	w.inflight, w.head = w.inflight[:0], 0
	for _, ev := range w.events {
		ev.sent = false
	}
}

// connect dials the slot's peer and runs the hello handshake: a server
// of the same protocol version answers the hello with a hello-ack. A
// failed handshake is a failed dial; the redial loop tries again.
func (w *worker) connect() (*dshard.Conn, error) {
	c, err := net.DialTimeout("tcp", w.addr, remoteDialTimeout)
	if err != nil {
		return nil, err
	}
	cn := dshard.NewConn(c)
	err = cn.WriteHello(dshard.Hello{
		Version:         dshard.ProtocolVersion,
		Slot:            w.id,
		Window:          w.r.cfg.Window,
		UniversalFilter: !w.r.filtering,
	})
	if err != nil {
		cn.Close()
		return nil, err
	}
	// The ack must arrive before any stream traffic; bound the wait so
	// a peer that never answers cannot wedge the slot.
	c.SetReadDeadline(time.Now().Add(remoteDialTimeout))
	typ, body, err := cn.ReadFrame()
	if err == nil && typ != dshard.FrameHelloAck {
		err = fmt.Errorf("dshard handshake: unexpected frame 0x%02x", typ)
	}
	if err == nil {
		_, err = dshard.DecodeHelloAck(body)
	}
	if err != nil {
		cn.Close()
		return nil, err
	}
	c.SetReadDeadline(time.Time{})
	return cn, nil
}

// reader settles the server's frames as they arrive (readFrame) and
// never waits on the slot loop, so a peer streaming matches while a
// frame write is pending is always read. It exits on the close
// barrier's done, reporting true on exit; on a read error or a
// protocol violation it closes the connection first, so a write
// pending on it fails, and reports false.
func (w *worker) reader(conn *dshard.Conn, exit chan<- bool) {
	fin, ok := false, true
	for ok && !fin {
		fin, ok = w.readFrame(conn)
	}
	if !ok {
		conn.Close()
	}
	exit <- fin
}

// readFrame reads one server frame and settles it: a match is buffered
// on its frame, a snapshot kept for its done, and a done pops the frame
// (handleDone, whose results it returns) and wakes the slot loop. !ok
// also reports a read or decode error.
func (w *worker) readFrame(conn *dshard.Conn) (finished, ok bool) {
	typ, body, err := conn.ReadFrame()
	if err != nil {
		return false, false
	}
	switch typ {
	case dshard.FrameMatch:
		m, err := conn.DecodeMatch(body)
		w.mu.Lock()
		defer w.mu.Unlock()
		if f := w.headLocked(m.Frame); err == nil && f != nil {
			f.matches = append(f.matches, Match{
				Seq: m.Seq, Shard: w.id, Query: m.Query, rank: m.Rank,
				FirstTS: m.FirstTS, LastTS: m.LastTS, Bindings: m.Bindings, Edges: m.Edges,
			})
			return false, true
		}
	case dshard.FrameSnapshot:
		m, err := dshard.DecodeSnapshot(body)
		// Data aliases the connection read buffer; the slot retains the
		// snapshot across frames (and connections), so copy.
		m.Data = append([]byte(nil), m.Data...)
		if err == nil && w.keepSnapshot(m) {
			return false, true
		}
	case dshard.FrameDone:
		if d, err := dshard.DecodeDone(body); err == nil {
			finished, ok = w.handleDone(d)
			select {
			case w.wake <- struct{}{}:
			default:
			}
			return finished, ok
		}
	}
	return false, false
}

// Matches takes what an edge of an in-process batch completed
// (dshard.Replier) into pend, which the frame's done resolves and
// delivers.
func (w *worker) Matches(_, seq uint64, nms []core.NamedMatch) {
	for _, nm := range nms {
		w.pend = append(w.pend, pendingMatch{seq: seq, nm: nm})
	}
}

// Flushed resolves and delivers what an in-process control point's
// flush barrier completed (dshard.Replier) at once, while the engine
// still holds the query and the edges they bind.
func (w *worker) Flushed(frame, seq uint64, nms []core.NamedMatch) {
	w.Matches(frame, seq, nms)
	w.emitPending()
	w.pend = w.pend[:0]
}

// Snapshot keeps an in-process frame's image or handed-over state on
// the frame for its done (dshard.Replier).
func (w *worker) Snapshot(m dshard.Snapshot) error {
	if !w.keepSnapshot(m) {
		panic(fmt.Sprintf("shard: slot %d: in-process snapshot for frame %d out of order", w.id, m.Frame))
	}
	return nil
}

// keepSnapshot keeps a snapshot on its frame, the head of the FIFO, for
// the done; false when it answers no frame that takes one.
func (w *worker) keepSnapshot(m dshard.Snapshot) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	f := w.headLocked(m.Frame)
	if f == nil || f.kind != msgCheckpoint && f.kind != msgUnregister {
		return false
	}
	f.snapData = m.Data
	return true
}

// Done settles an in-process frame, as the reader settles a
// connection's (dshard.Replier). An in-process host answers in order;
// anything else is a bug in this package, not a peer to drop.
func (w *worker) Done(d dshard.Done) error {
	fin, ok := w.handleDone(d)
	if !ok {
		panic(fmt.Sprintf("shard: slot %d: in-process done of frame %d out of order", w.id, d.Frame))
	}
	if fin {
		w.exit <- true
	}
	return nil
}

// headLocked returns the oldest inflight frame when its id is frame,
// nil otherwise: the host answers frames in order. Caller holds w.mu.
func (w *worker) headLocked(frame uint64) *inflightFrame {
	if w.head == len(w.inflight) || w.inflight[w.head].id != frame {
		return nil
	}
	return &w.inflight[w.head]
}

func (w *worker) pushInflight(f inflightFrame) uint64 {
	f.sentAt = w.r.tel.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.frameID++
	f.id = w.frameID
	w.inflight = append(w.inflight, f)
	return f.id
}

// popLocked removes the head frame, compacting the FIFO once half of it
// is popped, so a slot that keeps a frame or two in flight reuses one
// array. Caller holds w.mu.
func (w *worker) popLocked() {
	w.head++
	if w.head*2 >= len(w.inflight) {
		n := copy(w.inflight, w.inflight[w.head:])
		clear(w.inflight[n:])
		w.inflight, w.head = w.inflight[:n], 0
	}
}

// sendLive translates one queue message into a frame on the current
// transport. Messages already covered by the rebuild replay (or
// consumed while disconnected — the log retains them for the next
// rebuild) are skipped. Returns false when the transport broke.
func (w *worker) sendLive(tr transport, msg message, sentEnd *uint64) bool {
	switch msg.kind {
	case msgEdges:
		end := msg.baseSeq + uint64(len(msg.edges))
		if tr == nil || end <= *sentEnd {
			return true
		}
		*sentEnd = end
		return w.sendEdges(tr, msg.baseSeq, msg.edges, 0)
	case msgRegister, msgUnregister:
		ev := msg.revent
		w.mu.Lock()
		skip := tr == nil || ev.sent || ev.acked
		if !skip {
			ev.sent = true
		}
		w.mu.Unlock()
		if skip {
			return true
		}
		return w.sendEvent(tr, ev, false)
	case msgCheckpoint:
		ok := true
		if tr != nil && w.replays.Load() {
			// Bound the entitlement: a snapshot request. Disconnected,
			// there is nothing to snapshot against; the next cadence
			// round (or the round after the reconnect) re-requests.
			id := w.pushInflight(inflightFrame{kind: msgCheckpoint})
			ok = tr.WriteCheckpoint(dshard.Checkpoint{Frame: id}) == nil
		}
		if msg.reply != nil {
			msg.reply <- w.writeCheckpoint(msg.seq)
		}
		return ok
	}
	return true
}

// sendEdges writes one admitted (or replayed) batch as one or more
// edge frames, each under the chunk-size bound, with per-chunk
// delivery state: chunks ending at or below delivered are suppressed
// (their matches were already delivered on an earlier connection).
func (w *worker) sendEdges(tr transport, base uint64, edges []stream.Edge, delivered uint64) bool {
	for len(edges) > 0 {
		chunk := edges[:w.chunkLen(edges)]
		edges = edges[len(chunk):]
		end := base + uint64(len(chunk))
		suppress := end <= delivered
		id := w.pushInflight(inflightFrame{kind: msgEdges, base: base, end: end, suppress: suppress})
		if tr.WriteEdges(dshard.Edges{Frame: id, Suppress: suppress, BaseSeq: base, Edges: chunk}) != nil {
			return false
		}
		base = end
	}
	return true
}

// sendEvent writes one control frame; suppress marks a replayed event
// whose matches were already delivered. A register whose backfill
// exceeds the chunk bound is split: the register frame carries the
// first chunk, continuation frames the rest, back-to-back before any
// other traffic.
func (w *worker) sendEvent(tr transport, ev *remoteEvent, suppress bool) bool {
	if ev.msg.kind == msgRegister {
		wr := w.wireRegister(ev, suppress)
		rest := wr.Backfill[w.chunkLen(wr.Backfill):]
		wr.Backfill = wr.Backfill[:len(wr.Backfill)-len(rest)]
		wr.Frame = w.pushInflight(inflightFrame{kind: msgRegister, ev: ev, suppress: suppress, backfill: len(wr.Backfill) + len(rest)})
		if tr.WriteRegister(wr) != nil {
			return false
		}
		for len(rest) > 0 {
			chunk := rest[:w.chunkLen(rest)]
			rest = rest[len(chunk):]
			id := w.pushInflight(inflightFrame{kind: msgBackfill})
			if tr.WriteBackfill(dshard.BackfillChunk{Frame: id, Name: ev.msg.name, Edges: chunk}) != nil {
				return false
			}
		}
		return true
	}
	id := w.pushInflight(inflightFrame{kind: msgUnregister, ev: ev, suppress: suppress})
	m := ev.msg
	return tr.WriteUnregister(dshard.Unregister{
		Frame: id, Suppress: suppress, Name: m.name, Seq: m.seq,
		FilterUniversal: m.postUniversal, FilterTypes: m.postTypes,
		Migrate: m.migrate,
	}) == nil
}

// wireRegister builds the register message (frame id assigned by the
// caller), recomputing the backfill payload from the current log
// snapshot: every logged edge before the registration, at or above its
// window floor, whose type the registration newly needs. The backfill
// is read on the slot goroutine against a lock-free log snapshot, so
// the router and the other slots proceed unimpeded; this slot's own
// queue waits, which is exactly the Register barrier semantics. The log
// is pinned at the registration floor for as long as a slot that keeps
// a replay entitlement retains the registration, so a reconnect replay
// finds the same edges.
func (w *worker) wireRegister(ev *remoteEvent, suppress bool) dshard.Register {
	m := ev.msg
	out := dshard.Register{
		Suppress: suppress, Name: m.name, Seq: m.seq, Rank: m.rank, Strategy: int(m.cfg.Strategy),
		HasLeaves: m.cfg.Leaves != nil, Leaves: m.cfg.Leaves,
		MaxMatches: m.cfg.MaxMatchesPerSearch, MaxWork: m.cfg.MaxWorkPerEdge, MaxSteps: m.cfg.MaxStepsPerSearch,
		FilterUniversal: m.postUniversal, FilterTypes: m.postTypes,
		// A migration's state image rides every (re)send of the frame:
		// a reconnect replay re-registers onto a fresh engine, which
		// needs the transplant again. It carries the query and its
		// configuration, so the message has none of its own.
		State: m.state,
		Graph: m.q,
	}
	if m.q != nil {
		out.Query = m.q.String()
	}
	out.Backfill = w.r.log.missed(m.seq, m.minTS, m.needAll, m.heldTypes, m.needTypes)
	return out
}

// rebuild replays the slot's whole retained entitlement — control
// events interleaved with EdgeLog batches in arrival-seq order — onto
// a fresh transport, reconstructing the engine's state exactly, while
// the transport's answers are settled. It returns the log position the
// replay covered (resuming live sends skip anything at or below it),
// and false when the transport broke.
func (w *worker) rebuild(tr transport) (sentEnd uint64, ok bool) {
	// replayAdmit over-approximates every replica-filter state the
	// replay passes through: each retained control event carries a full
	// post-change filter snapshot, every live registration is retained,
	// and retained register events precede their unregisters — so the
	// union of the events' post-filters (plus the current gate, for the
	// universal modes) admits every edge any replayed filter state
	// would. Segments admitting nothing under it are skipped, keeping
	// reconnect traffic footprint-proportional, exactly like the
	// router-side gate on the live path: the worker's evolving filter
	// would drop every edge of such a segment anyway, and a skipped
	// segment advances no flush barrier (no admitted edges).
	//
	// The events clone and the log view must form one consistent cut:
	// both are read inside one w.mu section, and every admission
	// publishes its log append (an atomic view store, under the
	// router's ingest lock) before its note* call takes w.mu — so if
	// the clone contains an event at seq p, the view contains every
	// segment below p, and any segment or event this cut misses is
	// delivered afterwards, in admission order, by the live queue
	// (sendLive skips exactly what the cut covered).
	w.mu.Lock()
	events := append([]*remoteEvent(nil), w.events...)
	spans := append([]remoteSpan(nil), w.spans...)
	delivered := w.deliveredEnd
	snap := w.snap
	snapSeq := w.snapSeq
	snapUniversal := w.snapUniversal
	snapTypes := append([]string(nil), w.snapTypes...)
	var segs []logBatch
	var logEnd uint64
	w.r.log.EachSegment(func(edges []stream.Edge, base uint64) bool {
		segs = append(segs, logBatch{edges: edges, base: base})
		logEnd = base + uint64(len(edges))
		return true
	})
	w.mu.Unlock()

	if snap != nil {
		// Restore the snapshot before any replayed traffic, then replay
		// only the tail past its position. The covered log prefix is
		// dropped here (a straddling segment is sliced — snapSeq is a
		// wire-chunk boundary, which may fall mid-batch); every retained
		// control event is uncovered and therefore at seq >= snapSeq, so
		// the seq-interleaved walk below is unchanged.
		id := w.pushInflight(inflightFrame{kind: msgRestore})
		if tr.WriteRestore(dshard.Restore{Frame: id, Data: snap}) != nil {
			return 0, false
		}
		for len(segs) > 0 {
			end := segs[0].base + uint64(len(segs[0].edges))
			if end <= snapSeq {
				segs = segs[1:]
				continue
			}
			if segs[0].base < snapSeq {
				segs[0] = logBatch{edges: segs[0].edges[snapSeq-segs[0].base:], base: snapSeq}
			}
			break
		}
	}

	replayUniversal := !w.r.filtering || snapUniversal
	replayTypes := make(map[string]bool)
	for _, tp := range snapTypes {
		// The snapshot engine's own filter: a tail segment it admits
		// must replay even when no retained control event covers it.
		replayTypes[tp] = true
	}
	for _, ev := range events {
		if ev.msg.postUniversal {
			replayUniversal = true
			break
		}
		for _, tp := range ev.msg.postTypes {
			replayTypes[tp] = true
		}
	}
	// Everything from the oldest unacknowledged span onward replays
	// unconditionally: a span MUST eventually be acknowledged (it holds
	// the close barrier open and pins the log), and its admitting gate
	// state can have vanished from the retained events — a registration
	// that widened the gate, admitted a batch in its reply gap, and
	// then errored remotely leaves a span no retained filter covers.
	// The tail is bounded by Config.RemotePending, so the unfiltered
	// replay cost is bounded too.
	unackedBase := uint64(math.MaxUint64)
	if len(spans) > 0 {
		unackedBase = spans[0].base
	}
	admits := func(seg logBatch) bool {
		if replayUniversal || seg.base+uint64(len(seg.edges)) > unackedBase {
			return true
		}
		for _, se := range seg.edges {
			if replayTypes[se.Type] {
				return true
			}
		}
		return false
	}

	si := 0
	for _, ev := range events {
		for si < len(segs) && segs[si].base < ev.msg.seq {
			if admits(segs[si]) && !w.sendSegment(tr, segs[si], delivered) {
				return 0, false
			}
			si++
		}
		w.mu.Lock()
		suppress := ev.acked
		ev.sent = true
		w.mu.Unlock()
		if !w.sendEvent(tr, ev, suppress) {
			return 0, false
		}
	}
	for ; si < len(segs); si++ {
		if admits(segs[si]) && !w.sendSegment(tr, segs[si], delivered) {
			return 0, false
		}
	}
	return logEnd, true
}

// logBatch is one EdgeLog segment snapshotted for replay.
type logBatch struct {
	edges []stream.Edge
	base  uint64
}

func (w *worker) sendSegment(tr transport, seg logBatch, delivered uint64) bool {
	w.replayed.Add(int64(len(seg.edges)))
	return w.sendEdges(tr, seg.base, seg.edges, delivered)
}

// handleDone pops the acknowledged frame, settles it, publishes the
// slot's gauges, delivers its matches and replies. It returns
// (finished, ok): finished when the close barrier was acknowledged, !ok
// on a protocol violation (the connection is dropped and rebuilt).
func (w *worker) handleDone(d dshard.Done) (finished, ok bool) {
	w.mu.Lock()
	fp := w.headLocked(d.Frame)
	if fp == nil {
		w.mu.Unlock()
		return false, false
	}
	f := *fp
	if f.kind == msgUnregister && f.ev.msg.migrate && d.Err == "" && f.snapData == nil {
		w.mu.Unlock()
		return false, false // a handover's state comes before its done
	}
	w.popLocked()
	if w.ackRTT != nil {
		w.ackRTT.Record(w.r.tel.now() - f.sentAt)
	}
	var reply chan error
	var replyErr error
	switch {
	case f.closing, f.kind == msgBackfill, f.kind == msgRestore:
		// No stream position and no retained event to settle. (A failed
		// restore never reaches here: the host ends the stream instead of
		// acknowledging a state it did not adopt, and connLost clears the
		// inflight FIFO.)
	case f.kind == msgCheckpoint:
		w.adoptSnapshotLocked(f.snapData)
	case f.kind == msgEdges:
		// Settled below, after the frame's matches are delivered.
	default: // control frame
		ev := f.ev
		first := !ev.acked
		ev.acked = true
		if first {
			w.settleLocked(ev, d.Err)
			if ev.msg.kind == msgRegister && d.Err == "" {
				w.edgesBackfilled.Add(int64(f.backfill))
				if ev.msg.migrate {
					w.r.tel.migBackfill.Add(int64(f.backfill))
				}
			}
		}
		if !ev.replied {
			ev.replied = true
			reply = ev.msg.reply
			if d.Err != "" {
				replyErr = errors.New(d.Err)
			} else if h := ev.msg.handoff; h != nil {
				// The state came in the snapshot that preceded this done;
				// the rank is the registration's own.
				h.state = f.snapData
				if ev.reg != nil {
					h.rank = ev.reg.msg.rank
				}
			}
		}
		if !first {
			f.matches = nil // matches of an already-delivered event were suppressed
		}
	}
	w.mu.Unlock()
	w.publish(d.Report)

	// Deliver outside the lock: a full collection channel must
	// backpressure the slot (then the peer, then ingest), not deadlock
	// Stats readers. And before the control reply: once Register or
	// Unregister returns, the matches its flush barrier produced are
	// counted as emitted, so the checkpoint round that makes the call
	// durable waits for them.
	if !f.suppress {
		w.deliver(f)
	}
	if reply != nil {
		reply <- replyErr
	}
	if f.kind == msgEdges && !f.closing {
		w.batchTime.Record(w.r.tel.now() - f.sentAt)
		// Pop the frame's spans only now that Router.deliver has counted
		// its matches as emitted: the durable checkpoint barrier
		// (durable.go's checkpointRound) reads the emitted counter after
		// observing the spans, and must never see an edge unpinned while
		// its matches are still uncounted. Until then other goroutines
		// (the ingest-path trim, a checkpoint round) see the span
		// pinned a little longer, the safe side; the one reader of
		// deliveredEnd, a reconnect's rebuild, starts only after drop
		// has waited for the reader to exit.
		w.mu.Lock()
		if f.end > w.deliveredEnd {
			w.deliveredEnd = f.end
		}
		for len(w.spans) > 0 && w.spans[0].end <= f.end {
			w.spans = w.spans[1:]
		}
		w.recomputePinLocked()
		w.mu.Unlock()
	}
	return f.closing, true
}

// adoptSnapshotLocked installs a checkpoint's snapshot at the moment
// its done frame pops, when deliveredEnd is exactly the stream
// position the worker's engine had processed when it serialized
// itself (the request pipeline is FIFO over one connection, so every
// edge frame acknowledged before the checkpoint is inside the image
// and everything after it is tail). nil data means the worker skipped
// the snapshot (image over the frame limit): keep the previous one —
// checkpointing is best-effort and the old entitlement stays pinned.
// Caller holds w.mu.
func (w *worker) adoptSnapshotLocked(data []byte) {
	if data == nil {
		return
	}
	w.snap = data
	w.snapSeq = w.deliveredEnd
	w.snapUniversal = w.ackUniversal
	w.snapTypes = append([]string(nil), w.ackTypes...)
	w.cover.Store(w.snapSeq)
	// Retire every acknowledged control event: acknowledged before the
	// checkpoint means processed before the snapshot was taken, so the
	// image embeds its effect and a reconnect replay no longer needs
	// it. regs is untouched — the registrations are still
	// live, their replay entitlement is just the snapshot now. This is
	// what un-freezes the pin floor: the retired register events'
	// registration-time window floors stop holding the EdgeLog.
	kept := w.events[:0]
	for _, ev := range w.events {
		if !ev.acked {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(w.events); i++ {
		w.events[i] = nil
	}
	w.events = kept
	w.recomputePinLocked()
}

// deliver forwards one settled frame's matches into blocks from the
// router's free list: an in-process frame's (pend) resolved straight
// into them, a connection's copied out of the decoder's memory — per-seq
// bundles in ordered mode, collection blocks otherwise.
func (w *worker) deliver(f inflightFrame) {
	w.matchesEmitted.Add(int64(len(f.matches)))
	if w.bundles != nil && f.kind == msgEdges && !f.closing {
		// Ordered mode: one bundle per edge, empty or not. A universal
		// slot's flush barriers never fire, so its edges complete all its
		// matches.
		w.matchesEmitted.Add(int64(len(w.pend)))
		mi, pi := 0, 0
		for seq := f.base; seq < f.end; seq++ {
			b := bundle{seq: seq}
			lo := mi
			for mi < len(f.matches) && f.matches[mi].Seq == seq {
				mi++
			}
			if mi > lo {
				b.block = w.r.blockOf(f.matches[lo:mi])
			}
			lo = pi
			for pi < len(w.pend) && w.pend[pi].seq == seq {
				pi++
			}
			if pi > lo {
				b.block = w.resolveBlock(w.pend[lo:pi])
			}
			w.bundles <- b
		}
	} else {
		for lo := 0; lo < len(f.matches); lo += blockSize {
			w.r.deliver(w.r.blockOf(f.matches[lo:min(lo+blockSize, len(f.matches))]))
		}
		w.emitPending()
	}
	w.pend = w.pend[:0]
}

// publish exposes a slot's gauges, as each done reports them, to the
// lock-free Stats/scrape readers.
func (w *worker) publish(rep dshard.Report) {
	w.replicaLive.Set(rep.Live)
	w.replicaStored.Set(rep.Stored)
	w.replicaTypes.Set(rep.Types)
	w.replicaVertices.Set(rep.Vertices)
	w.replicaVertexSlots.Set(rep.VertexSlots)
	w.engEdges.Set(rep.Edges)
	w.engPartial.Set(rep.Partial)
	w.treeInserted.Set(rep.TreeInserted)
	w.treeDeduped.Set(rep.TreeDeduped)
	w.treeEmitted.Set(rep.TreeEmitted)
	w.treeEvicted.Set(rep.TreeEvicted)
	w.poolGets.Set(rep.PoolGets)
	w.poolFresh.Set(rep.PoolFresh)
}

// pendingMatch is one engine-owned match waiting to be resolved, with
// the arrival seq of the edge that completed it.
type pendingMatch struct {
	seq uint64
	nm  core.NamedMatch
}

// emitPending resolves and delivers w.pend, blockSize matches at a
// time. The engine's results are valid until its next call, so the
// whole list resolves before the slot takes its next message — which
// also means every match of a message is counted as emitted before a
// checkpoint request queued behind it is answered.
func (w *worker) emitPending() {
	for lo := 0; lo < len(w.pend); lo += blockSize {
		hi := min(lo+blockSize, len(w.pend))
		w.matchesEmitted.Add(int64(hi - lo))
		w.r.deliver(w.resolveBlock(w.pend[lo:hi]))
	}
}

// resolveBlock converts engine matches into the portable form, in a
// block drawn from the router's free list (nil for no matches): all IDs
// are looked up against the slot's private graph now (the shared
// core.AppendResolved walk, through the slot), so the emitted matches
// survive later eviction. The block has room for them all before the
// first is resolved, so every match is a capacity-clipped window of its
// slabs and a consumer appending to one cannot write into its neighbour.
func (w *worker) resolveBlock(pend []pendingMatch) *block {
	if len(pend) == 0 {
		return nil
	}
	nb, ne := 0, 0
	for _, p := range pend {
		nb += len(p.nm.Match.VertexOf)
		ne += len(p.nm.Match.EdgeOf)
	}
	b := w.r.getBlock(len(pend), nb, ne)
	for _, p := range pend {
		b0, e0 := len(b.bindings), len(b.edges)
		var rank int
		b.bindings, b.edges, rank = w.slot.AppendResolved(b.bindings, b.edges, p.nm)
		b.matches = append(b.matches, Match{
			Seq: p.seq, Shard: w.id, Query: p.nm.Query, rank: rank,
			FirstTS: p.nm.Match.MinTS, LastTS: p.nm.Match.MaxTS,
			Bindings: b.bindings[b0:len(b.bindings):len(b.bindings)],
			Edges:    b.edges[e0:len(b.edges):len(b.edges)],
		})
	}
	return b
}
