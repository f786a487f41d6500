// Remote shard slots. A Router slot normally runs as a local worker
// goroutine; with Config.Remotes it can instead be a TCP connection to
// a remote shard worker process (cmd/sgshard) speaking the
// internal/dshard protocol. This file is the router side of that
// split: a proxy that feeds the slot's bounded queue over the wire,
// buffers each frame's matches until its acknowledgment (so delivery
// is atomic per frame), and rebuilds the remote engine after a
// disconnect by replaying the slot's control events interleaved with
// the shared EdgeLog.
//
// Exactly-once across reconnects. The remote worker keeps no state
// between connections. On every new connection the proxy replays, in
// arrival-seq order, every retained log batch and every non-retired
// control event; frames whose matches were already delivered are
// marked suppress — the worker processes them fully (rebuilding graph,
// filter and partial-match state) but emits no matches. A frame's
// matches are only delivered to the collection channel when its done
// frame arrives, so a connection dying mid-frame loses nothing (the
// frame replays unsuppressed) and duplicates nothing (delivered frames
// replay suppressed). The EdgeLog is pinned against trimming below
// each live remote registration's window floor and below the oldest
// unacknowledged batch, which is exactly the replay entitlement.
//
// Snapshots bound the entitlement. Left alone, the replay pin is
// unbounded: a live registration's floor is frozen at registration
// time, so a long-lived remote registration holds the log forever (the
// PR 5 failure mode). The router therefore periodically sends a
// checkpoint frame down the same ordered pipeline; the worker answers
// with a serialized image of its whole engine. Because the pipeline is
// FIFO over a single connection, when the checkpoint's done frame
// arrives every previously acknowledged frame is inside the snapshot
// and everything after it is tail — so the proxy retires every
// acknowledged control event, records the snapshot's stream position
// (deliveredEnd at that instant), and the pin floor recomputes from
// only the uncovered remainder. A reconnect then sends the snapshot
// back in a restore frame and replays just the log tail past the
// snapshot position, instead of the whole history.
//
// Two goroutines per connection, neither waiting on the other. The slot
// goroutine (run) only writes frames. The reader settles what comes
// back: it buffers matches, pops acknowledged frames, delivers their
// matches and replies. A stalled consumer backpressures the reader,
// then the worker, then ingest.
package shard

import (
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamgraph/internal/dshard"
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
// frame (edge batches and register backfills split into continuation
// frames beyond it), keeping every frame far from the protocol's
// MaxFrame limit no matter how large an ingest batch or a
// re-registration backfill grows. A single edge cannot be split, so
// edges whose strings approach MaxFrame (64 MiB) are unsendable — no
// ingestion surface can produce one (stream.Reader caps lines at
// 4 MiB, the TCP server at 1 MiB); library callers ingesting
// synthetic edges of that size would stall the slot. Variable so
// tests can force heavy chunking on small workloads.
var remoteChunkBytes = 16 << 20

// splitEdgesForWire cuts edges into chunks whose estimated encoded
// size stays under remoteChunkBytes. The 40-byte per-edge allowance
// covers the worst-case framing overhead (five uvarint length
// prefixes up to 5 bytes each plus a 10-byte zigzag timestamp);
// exactness never depends on chunk boundaries — the batch pipeline's
// per-edge results are split-invariant.
func splitEdgesForWire(edges []stream.Edge) [][]stream.Edge {
	var chunks [][]stream.Edge
	start, size := 0, 0
	for i, e := range edges {
		size += len(e.Src) + len(e.SrcLabel) + len(e.Dst) + len(e.DstLabel) + len(e.Type) + 40
		if size >= remoteChunkBytes {
			chunks = append(chunks, edges[start:i+1])
			start, size = i+1, 0
		}
	}
	if start < len(edges) {
		chunks = append(chunks, edges[start:])
	}
	return chunks
}

// remoteEvent is one admitted control message (register/unregister)
// destined for a remote slot, retained until it can never be needed by
// a reconnect replay again.
type remoteEvent struct {
	seq  uint64
	kind msgKind
	msg  message
	reg  *remoteEvent // unregister: the registration it retires

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

// inflightFrame is one frame sent on the current connection whose done
// has not arrived; matches buffer here until it does.
type inflightFrame struct {
	id        uint64
	kind      msgKind
	ev        *remoteEvent
	base, end uint64 // msgEdges
	suppress  bool
	closing   bool
	matches   []Match
	snapData  []byte // the snapshot frame's payload: a checkpoint's image, a handed-over state
	sentAt    int64  // telemetry.now at push; ack round-trip = done pop - sentAt
}

// remoteSlot is the router-side proxy for one remote shard slot.
type remoteSlot struct {
	w          *worker
	addr       string
	pendingCap int

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
	events       []*remoteEvent          // admitted, non-retired, seq order
	regs         map[string]*remoteEvent // live registration by name
	liveRegs     int
	spans        []remoteSpan
	deliveredEnd uint64
	inflight     []inflightFrame

	// wake is poked (never blocking) after each done the reader
	// settles, so the slot goroutine re-checks admission and the close
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

	// hospice, when non-nil, is the in-process dshard.Server addr then
	// points at: the failover engine a dead slot's state is rebuilt
	// into (see Config.RedialBudget). addr and hospice are touched only
	// by the slot goroutine.
	hospice *dshard.Server

	// unreachable is set while the slot's last dial failed, cleared by
	// the next successful one (worker.reachable).
	unreachable atomic.Bool

	// Wire telemetry (registerMetrics). liveConn tracks the current
	// connection so scrape-time wire totals can add its live counters
	// to the closed-connection accumulators below.
	connects *metrics.Counter
	replayed *metrics.Counter
	ackRTT   *metrics.AtomicHistogram
	liveConn atomic.Pointer[dshard.Conn]
	closedBytesIn, closedBytesOut,
	closedFramesIn, closedFramesOut atomic.Int64
}

// registerMetrics wires the slot's dshard series into the router
// registry: connect/replay counters, ack round-trip, and scrape-time
// wire byte/frame totals folding the live connection into the closed
// accumulators.
func (rs *remoteSlot) registerMetrics(t *telemetry) {
	sh := strconv.Itoa(rs.w.id)
	rs.connects = t.reg.Counter("sg_dshard_connects_total", "shard", sh)
	rs.replayed = t.reg.Counter("sg_dshard_replayed_edges_total", "shard", sh)
	rs.ackRTT = t.reg.Histogram("sg_dshard_ack_rtt_ns", "shard", sh)
	wire := func(acc *atomic.Int64, live func(dshard.ConnStats) int64) func() int64 {
		return func() int64 {
			v := acc.Load()
			if c := rs.liveConn.Load(); c != nil {
				v += live(c.Stats())
			}
			return v
		}
	}
	bytesIn := wire(&rs.closedBytesIn, func(s dshard.ConnStats) int64 { return s.BytesIn })
	bytesOut := wire(&rs.closedBytesOut, func(s dshard.ConnStats) int64 { return s.BytesOut })
	t.reg.CounterFunc("sg_dshard_bytes_in_total", bytesIn, "shard", sh)
	t.reg.CounterFunc("sg_dshard_bytes_out_total", bytesOut, "shard", sh)
	// Nothing compresses frames, so the raw series count the same bytes;
	// they stay for the readers that still divide by them.
	t.reg.CounterFunc("sg_dshard_raw_bytes_in_total", bytesIn, "shard", sh)
	t.reg.CounterFunc("sg_dshard_raw_bytes_out_total", bytesOut, "shard", sh)
	t.reg.CounterFunc("sg_dshard_frames_in_total", wire(&rs.closedFramesIn, func(s dshard.ConnStats) int64 { return s.FramesIn }), "shard", sh)
	t.reg.CounterFunc("sg_dshard_frames_out_total", wire(&rs.closedFramesOut, func(s dshard.ConnStats) int64 { return s.FramesOut }), "shard", sh)
	// Dictionary gauges describe the CURRENT connection (dictionaries
	// are per connection by design — a reconnect starts empty), so
	// they read the live conn only and report 0 while disconnected.
	dict := func(live func(dshard.ConnStats) int64) func() int64 {
		return func() int64 {
			if c := rs.liveConn.Load(); c != nil {
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

// reachable reports whether the slot can answer a control message: a
// local slot always, a remote one unless its last dial failed. A remote
// slot between a lost connection and its redial answers from the
// reconnect's replay.
func (w *worker) reachable() bool {
	return w.remote == nil || !w.remote.unreachable.Load()
}

// noteConnClosed folds a finished connection's wire counters into the
// closed accumulators (exactly once per connection) and clears the
// live pointer.
func (rs *remoteSlot) noteConnClosed(c *dshard.Conn) {
	if c == nil || !rs.liveConn.CompareAndSwap(c, nil) {
		return
	}
	st := c.Stats()
	rs.closedBytesIn.Add(st.BytesIn)
	rs.closedBytesOut.Add(st.BytesOut)
	rs.closedFramesIn.Add(st.FramesIn)
	rs.closedFramesOut.Add(st.FramesOut)
}

func newRemoteSlot(w *worker, addr string, pendingCap int) *remoteSlot {
	rs := &remoteSlot{w: w, addr: addr, pendingCap: pendingCap, regs: make(map[string]*remoteEvent), wake: make(chan struct{}, 1)}
	rs.pin.Store(math.MaxInt64)
	rs.cover.Store(math.MaxUint64)
	rs.ackUniversal = !w.r.filtering
	return rs
}

// noteControl records an admitted control event (register or
// unregister). Called under the router's ingestMu, before the message
// is enqueued (Router.send), so a concurrent rebuild can never miss an
// admitted event.
func (rs *remoteSlot) noteControl(msg *message) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	ev := &remoteEvent{seq: msg.seq, kind: msg.kind, msg: *msg}
	msg.revent = ev
	ev.msg.revent = ev
	rs.events = append(rs.events, ev)
	if msg.kind == msgRegister {
		rs.regs[msg.name] = ev
		rs.liveRegs++
		rs.recomputePinLocked()
		return
	}
	// The registration may already be gone: its register frame can have
	// errored (and been retired) while this Unregister raced the
	// Register's reply. Only a live entry pairs and decrements.
	if reg, ok := rs.regs[msg.name]; ok {
		ev.reg = reg
		delete(rs.regs, msg.name)
		rs.liveRegs--
	}
}

// noteEnqueuedEdges records an admitted edge batch (under ingestMu,
// before the enqueue).
func (rs *remoteSlot) noteEnqueuedEdges(base, end uint64, minTS int64) {
	rs.mu.Lock()
	rs.spans = append(rs.spans, remoteSpan{base: base, end: end, minTS: minTS})
	if len(rs.spans) == 1 {
		// Appending behind an existing head leaves the floor unchanged;
		// only a new head can lower it. Keeps the per-batch ingest cost
		// O(1) instead of O(live registrations).
		rs.recomputePinLocked()
	}
	rs.mu.Unlock()
}

// pinFloor reports the oldest timestamp the EdgeLog must retain for
// this slot: the window floor of every uncovered registration (a
// reconnect re-backfills from the registration floor until a snapshot
// covers it) and the oldest unacknowledged batch. MaxInt64 when
// nothing is pinned. Lock-free — the router calls it on every windowed
// ingest.
func (rs *remoteSlot) pinFloor() int64 { return rs.pin.Load() }

// coveredSeq reports the stream position the slot's engine snapshot
// covers — the EdgeLog must retain every segment past it for the
// reconnect tail replay, which must be gap-free (a skipped batch would
// leave its edges out of the restored replica).
// MaxUint64 while no snapshot exists: then nothing is pinned by seq
// and the slot's entitlement is purely the timestamp floor above.
// Lock-free, read on every windowed ingest.
func (rs *remoteSlot) coveredSeq() uint64 { return rs.cover.Load() }

// recomputePinLocked refreshes the cached pin floor. Caller holds
// rs.mu.
func (rs *remoteSlot) recomputePinLocked() {
	floor := int64(math.MaxInt64)
	for _, ev := range rs.events {
		if ev.kind == msgRegister && ev.msg.minTS < floor {
			floor = ev.msg.minTS
		}
	}
	if len(rs.spans) > 0 && rs.spans[0].minTS < floor {
		floor = rs.spans[0].minTS
	}
	rs.pin.Store(floor)
}

// oldestUnackedBase reports the base seq of the oldest unacknowledged
// edge batch (MaxUint64 when none): the durable log must retain from
// it onward so a reconnect replay can resend those batches. Not a hot
// path — only the checkpoint round reads it.
func (rs *remoteSlot) oldestUnackedBase() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.spans) == 0 {
		return math.MaxUint64
	}
	return rs.spans[0].base
}

func (rs *remoteSlot) pendingSpans() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.spans)
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
// Caller holds rs.mu.
func (rs *remoteSlot) settleLocked(ev *remoteEvent, errText string) {
	defer rs.recomputePinLocked()
	if errText == "" {
		// The worker applied this event's post-filter; a snapshot taken
		// at the current pipeline position will embed it.
		rs.ackUniversal, rs.ackTypes = ev.msg.postUniversal, ev.msg.postTypes
	}
	switch {
	case ev.kind == msgRegister:
		if errText != "" {
			rs.dropLocked(ev)
			if rs.regs[ev.msg.name] == ev {
				delete(rs.regs, ev.msg.name)
				rs.liveRegs--
			}
		}
	case errText != "":
		rs.dropLocked(ev)
		if ev.reg != nil {
			rs.regs[ev.msg.name] = ev.reg
			rs.liveRegs++
		}
	case ev.reg == nil || rs.dropLocked(ev.reg):
		rs.dropLocked(ev)
	}
}

// dropLocked removes one event from the replay set and reports whether
// the set held it. Caller holds rs.mu.
func (rs *remoteSlot) dropLocked(ev *remoteEvent) bool {
	for i, e := range rs.events {
		if e == ev {
			rs.events = append(rs.events[:i], rs.events[i+1:]...)
			return true
		}
	}
	return false
}

// run is the proxy's slot goroutine: the remote counterpart of
// worker.run. It only writes frames; the connection's reader settles
// what comes back and wakes it when a done may have changed admission
// or the close barrier.
func (rs *remoteSlot) run() {
	w := rs.w
	defer w.r.wg.Done()
	var (
		conn       *dshard.Conn
		readerExit chan bool        // the reader's exit: true after the close barrier's done
		redial     <-chan time.Time = time.After(0)
		backoff                     = remoteRedialMin
		sentEnd    uint64
		inClosed   bool
		closeSent  bool
		dialFails  int // consecutive dial failures, vs Config.RedialBudget
	)
	drop := func() {
		if conn != nil {
			rs.noteConnClosed(conn)
			conn.Close()
			conn = nil
		}
		if readerExit != nil {
			// The reader exits on the closed connection once it has
			// settled the frame it holds; wait for it so no stale frame
			// can land in the inflight FIFO after connLost clears it.
			<-readerExit
			readerExit = nil
		}
		closeSent = false
		rs.connLost()
		redial = time.After(backoff)
		if backoff *= 2; backoff > remoteRedialMax {
			backoff = remoteRedialMax
		}
	}
	for {
		// Admit new input only when connected-and-settled and under the
		// pending cap; a full slot queue then backpressures the router,
		// exactly like a slow local shard.
		var inCh chan message
		if !inClosed && rs.pendingSpans() < rs.pendingCap {
			inCh = w.in
		}
		if inClosed && conn != nil && !closeSent && rs.drained() {
			id := rs.pushInflight(inflightFrame{kind: msgEdges, closing: true})
			if err := conn.WriteCloseStream(dshard.CloseStream{Frame: id, FinalSeq: w.r.seq.Load()}); err != nil {
				drop()
				continue
			}
			closeSent = true
		}
		if inClosed && conn == nil && rs.drained() && rs.idle() {
			// Nothing was ever entrusted to the remote that still
			// matters; no need to reconnect just to say goodbye.
			rs.finish(nil)
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
			if !rs.sendLive(conn, msg, &sentEnd) {
				drop()
			}
		case <-rs.wake: // a done settled: re-check admission and the close barrier
		case fin := <-readerExit:
			readerExit = nil
			if fin {
				rs.finish(conn)
				return
			}
			drop()
		case <-redial:
			redial = nil
			c, err := rs.connect()
			rs.unreachable.Store(err != nil)
			if err != nil {
				if budget := w.r.cfg.RedialBudget; budget > 0 && rs.hospice == nil {
					if dialFails++; dialFails >= budget {
						// The peer is declared dead: adopt an in-process
						// hospice engine so the slot's snapshot and
						// replay entitlement can be rebuilt (no match
						// lost), and ask the router to evacuate its
						// registrations to the surviving slots.
						if rs.adoptHospice() == nil {
							w.r.tel.failovers.Inc()
							go w.r.failoverEvacuate(w)
							redial = time.After(0)
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
			conn = c
			rs.connects.Inc()
			rs.liveConn.Store(c)
			readerExit = make(chan bool, 1)
			go rs.reader(conn, readerExit)
			var ok bool
			if sentEnd, ok = rs.rebuild(conn); !ok {
				drop()
			}
		}
	}
}

// adoptHospice starts the failover engine: an in-process dshard.Server
// on a loopback listener, which the slot dials from then on instead of
// the dead peer, through the same dial, handshake and redial path.
func (rs *remoteSlot) adoptHospice() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rs.hospice = dshard.NewServer()
	go rs.hospice.Serve(ln)
	rs.addr = ln.Addr().String()
	return nil
}

// finish closes the slot down after the close barrier (or when no
// remote state exists): bundles close so an ordered merge completes.
func (rs *remoteSlot) finish(conn *dshard.Conn) {
	if rs.w.bundles != nil {
		close(rs.w.bundles)
	}
	if conn != nil {
		rs.noteConnClosed(conn)
		conn.Close()
	}
	if rs.hospice != nil {
		rs.hospice.Close()
	}
}

// drained reports whether every admitted message has been acknowledged.
func (rs *remoteSlot) drained() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.spans) > 0 || len(rs.inflight) > 0 {
		return false
	}
	for _, ev := range rs.events {
		if !ev.acked {
			return false
		}
	}
	return true
}

// idle reports whether the remote holds no state worth a final close
// barrier: no live registrations means no queries, hence no pending
// repairs and no matches to flush.
func (rs *remoteSlot) idle() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.liveRegs == 0
}

// connLost resets per-connection state: unacknowledged frames are
// forgotten (their buffered matches with them — they will be
// regenerated by the replay) and every event becomes resendable.
func (rs *remoteSlot) connLost() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.inflight = rs.inflight[:0]
	for _, ev := range rs.events {
		ev.sent = false
	}
}

// connect dials the slot's peer — the configured address, or the
// hospice after a failover — and runs the hello handshake: a server of
// the same protocol version answers the hello with a hello-ack. A
// failed handshake is a failed dial; the redial loop tries again.
func (rs *remoteSlot) connect() (*dshard.Conn, error) {
	c, err := net.DialTimeout("tcp", rs.addr, remoteDialTimeout)
	if err != nil {
		return nil, err
	}
	cn := dshard.NewConn(c)
	w := rs.w
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
// never waits on the slot goroutine, so a peer streaming matches while
// a frame write is pending is always read. It exits on the close
// barrier's done, reporting true on exit; on a read error or a
// protocol violation it closes the connection first, so a write
// pending on it fails, and reports false.
func (rs *remoteSlot) reader(conn *dshard.Conn, exit chan<- bool) {
	fin, ok := false, true
	for ok && !fin {
		fin, ok = rs.readFrame(conn)
	}
	if !ok {
		conn.Close()
	}
	exit <- fin
}

// readFrame reads one server frame and settles it under rs.mu: a match
// is buffered on its frame, a snapshot kept for its done, and a done
// pops the frame (handleDone, whose results it returns). !ok also
// reports a read or decode error.
func (rs *remoteSlot) readFrame(conn *dshard.Conn) (finished, ok bool) {
	typ, body, err := conn.ReadFrame()
	if err != nil {
		return false, false
	}
	switch typ {
	case dshard.FrameMatch:
		m, err := conn.DecodeMatch(body)
		rs.mu.Lock()
		defer rs.mu.Unlock()
		if f := rs.headLocked(m.Frame); err == nil && f != nil {
			f.matches = append(f.matches, fromWire(rs.w.id, m))
			return false, true
		}
	case dshard.FrameSnapshot:
		m, err := dshard.DecodeSnapshot(body)
		rs.mu.Lock()
		defer rs.mu.Unlock()
		if f := rs.headLocked(m.Frame); err == nil && f != nil && (f.kind == msgCheckpoint || f.kind == msgUnregister) {
			// Data aliases the connection read buffer; the slot retains
			// the snapshot across frames (and connections), so copy.
			f.snapData = append([]byte(nil), m.Data...)
			return false, true
		}
	case dshard.FrameDone:
		if d, err := dshard.DecodeDone(body); err == nil {
			return rs.handleDone(d)
		}
	}
	return false, false
}

// headLocked returns the oldest inflight frame when its id is frame,
// nil otherwise: the server answers frames in order. Caller holds
// rs.mu.
func (rs *remoteSlot) headLocked(frame uint64) *inflightFrame {
	if len(rs.inflight) == 0 || rs.inflight[0].id != frame {
		return nil
	}
	return &rs.inflight[0]
}

func (rs *remoteSlot) pushInflight(f inflightFrame) uint64 {
	f.sentAt = rs.w.r.tel.now()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.frameID++
	f.id = rs.frameID
	rs.inflight = append(rs.inflight, f)
	return f.id
}

// sendLive translates one queue message into a frame on the current
// connection. Messages already covered by the rebuild replay (or
// consumed while disconnected — the log retains them for the next
// rebuild) are skipped. Returns false when the connection broke.
func (rs *remoteSlot) sendLive(conn *dshard.Conn, msg message, sentEnd *uint64) bool {
	switch msg.kind {
	case msgEdges:
		end := msg.baseSeq + uint64(len(msg.edges))
		if conn == nil || end <= *sentEnd {
			return true
		}
		*sentEnd = end
		return rs.sendEdges(conn, msg.baseSeq, msg.edges, 0)
	case msgRegister, msgUnregister:
		ev := msg.revent
		rs.mu.Lock()
		skip := conn == nil || ev.sent || ev.acked
		if !skip {
			ev.sent = true
		}
		rs.mu.Unlock()
		if skip {
			return true
		}
		return rs.sendEvent(conn, ev, false)
	case msgCheckpoint:
		if conn == nil {
			// Nothing to snapshot against; the next cadence round (or
			// the round after the reconnect) re-requests.
			return true
		}
		id := rs.pushInflight(inflightFrame{kind: msgCheckpoint})
		return conn.WriteCheckpoint(dshard.Checkpoint{Frame: id}) == nil
	}
	return true
}

// sendEdges writes one admitted (or replayed) batch as one or more
// edge frames, each under the chunk-size bound, with per-chunk
// delivery state: chunks ending at or below delivered are suppressed
// (their matches were already delivered on an earlier connection).
func (rs *remoteSlot) sendEdges(conn *dshard.Conn, base uint64, edges []stream.Edge, delivered uint64) bool {
	for _, chunk := range splitEdgesForWire(edges) {
		end := base + uint64(len(chunk))
		suppress := end <= delivered
		id := rs.pushInflight(inflightFrame{kind: msgEdges, base: base, end: end, suppress: suppress})
		if conn.WriteEdges(dshard.Edges{Frame: id, Suppress: suppress, BaseSeq: base, Edges: chunk}) != nil {
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
func (rs *remoteSlot) sendEvent(conn *dshard.Conn, ev *remoteEvent, suppress bool) bool {
	if ev.kind == msgRegister {
		wr := rs.wireRegister(ev, suppress)
		var rest [][]stream.Edge
		if chunks := splitEdgesForWire(wr.Backfill); len(chunks) > 1 {
			wr.Backfill, rest = chunks[0], chunks[1:]
		}
		wr.Frame = rs.pushInflight(inflightFrame{kind: msgRegister, ev: ev, suppress: suppress})
		if conn.WriteRegister(wr) != nil {
			return false
		}
		for _, chunk := range rest {
			id := rs.pushInflight(inflightFrame{kind: msgBackfill})
			if conn.WriteBackfill(dshard.BackfillChunk{Frame: id, Name: ev.msg.name, Edges: chunk}) != nil {
				return false
			}
		}
		return true
	}
	id := rs.pushInflight(inflightFrame{kind: msgUnregister, ev: ev, suppress: suppress})
	m := ev.msg
	return conn.WriteUnregister(dshard.Unregister{
		Frame: id, Suppress: suppress, Name: m.name, Seq: m.seq,
		FilterUniversal: m.postUniversal, FilterTypes: m.postTypes,
		Migrate: m.migrate,
	}) == nil
}

// wireRegister builds the register frame (frame id assigned by the
// caller), recomputing the backfill payload from the current log
// snapshot: every logged edge before the registration, at or above its
// window floor, whose type the registration newly needs. The log is
// pinned at the registration floor for as long as the registration
// lives, so a reconnect replay finds the same edges.
func (rs *remoteSlot) wireRegister(ev *remoteEvent, suppress bool) dshard.Register {
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
	}
	if m.q != nil {
		out.Query = m.q.String()
	}
	out.Backfill = rs.w.r.log.missed(m.seq, m.minTS, m.needAll, m.heldTypes, m.needTypes)
	if m.migrate {
		// Backfill edges shipped for a migration target, counted per
		// send (a reconnect replay ships them again).
		rs.w.r.tel.migBackfill.Add(int64(len(out.Backfill)))
	}
	return out
}

// rebuild replays the slot's whole retained entitlement — control
// events interleaved with EdgeLog batches in arrival-seq order — onto
// a fresh connection, reconstructing the remote engine's state
// exactly, while the reader settles the acknowledgments and matches
// streaming back. It returns the log position the replay covered
// (resuming live sends skip anything at or below it), and false when
// the connection broke.
func (rs *remoteSlot) rebuild(conn *dshard.Conn) (sentEnd uint64, ok bool) {
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
	// both are read inside one rs.mu section, and every admission
	// publishes its log append (an atomic view store, under the
	// router's ingest lock) before its note* call takes rs.mu — so if
	// the clone contains an event at seq p, the view contains every
	// segment below p, and any segment or event this cut misses is
	// delivered afterwards, in admission order, by the live queue
	// (sendLive skips exactly what the cut covered).
	rs.mu.Lock()
	events := append([]*remoteEvent(nil), rs.events...)
	spans := append([]remoteSpan(nil), rs.spans...)
	delivered := rs.deliveredEnd
	snap := rs.snap
	snapSeq := rs.snapSeq
	snapUniversal := rs.snapUniversal
	snapTypes := append([]string(nil), rs.snapTypes...)
	var segs []logBatch
	var logEnd uint64
	rs.w.r.log.EachSegment(func(edges []stream.Edge, base uint64) bool {
		segs = append(segs, logBatch{edges: edges, base: base})
		logEnd = base + uint64(len(edges))
		return true
	})
	rs.mu.Unlock()

	if snap != nil {
		// Restore the snapshot before any replayed traffic, then replay
		// only the tail past its position. The covered log prefix is
		// dropped here (a straddling segment is sliced — snapSeq is a
		// wire-chunk boundary, which may fall mid-batch); every retained
		// control event is uncovered and therefore at seq >= snapSeq, so
		// the seq-interleaved walk below is unchanged.
		id := rs.pushInflight(inflightFrame{kind: msgRestore})
		if conn.WriteRestore(dshard.Restore{Frame: id, Data: snap}) != nil {
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

	replayUniversal := !rs.w.r.filtering || snapUniversal
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
		for si < len(segs) && segs[si].base < ev.seq {
			if admits(segs[si]) && !rs.sendSegment(conn, segs[si], delivered) {
				return 0, false
			}
			si++
		}
		rs.mu.Lock()
		suppress := ev.acked
		ev.sent = true
		rs.mu.Unlock()
		if !rs.sendEvent(conn, ev, suppress) {
			return 0, false
		}
	}
	for ; si < len(segs); si++ {
		if admits(segs[si]) && !rs.sendSegment(conn, segs[si], delivered) {
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

func (rs *remoteSlot) sendSegment(conn *dshard.Conn, seg logBatch, delivered uint64) bool {
	rs.replayed.Add(int64(len(seg.edges)))
	return rs.sendEdges(conn, seg.base, seg.edges, delivered)
}

// handleDone pops the acknowledged frame, settles it, delivers its
// matches and replies. It returns (finished, ok): finished when the
// close barrier was acknowledged, !ok on a protocol violation (the
// connection is dropped and rebuilt).
func (rs *remoteSlot) handleDone(d dshard.Done) (finished, ok bool) {
	w := rs.w
	rs.mu.Lock()
	fp := rs.headLocked(d.Frame)
	if fp == nil {
		rs.mu.Unlock()
		return false, false
	}
	f := *fp
	if f.kind == msgUnregister && f.ev.msg.migrate && d.Err == "" && f.snapData == nil {
		rs.mu.Unlock()
		return false, false // a handover's state comes before its done
	}
	rs.inflight = rs.inflight[1:]
	rs.ackRTT.Record(w.r.tel.now() - f.sentAt)
	var reply chan error
	var replyErr error
	switch {
	case f.closing, f.kind == msgBackfill, f.kind == msgRestore:
		// No stream position and no retained event to settle. (A failed
		// restore never reaches here: the worker kills the connection
		// instead of acknowledging a state it did not adopt, and
		// connLost clears the inflight FIFO.)
	case f.kind == msgCheckpoint:
		rs.adoptSnapshotLocked(f.snapData)
	case f.kind == msgEdges:
		// Settled below, after the frame's matches are delivered.
	default: // control frame
		ev := f.ev
		first := !ev.acked
		ev.acked = true
		if first {
			rs.settleLocked(ev, d.Err)
		}
		if !ev.replied {
			ev.replied = true
			reply = ev.msg.reply
			if d.Err != "" {
				replyErr = remoteRegisterError(d.Err)
			} else if h := ev.msg.handoff; h != nil {
				// The state rode the snapshot frame that preceded this
				// done; the rank is the registration's own.
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
	rs.mu.Unlock()
	w.publish(d.Report)

	// Deliver outside the lock: a full collection channel must
	// backpressure the reader (then the peer, then ingest), not
	// deadlock Stats readers. And before the
	// control reply, as a local worker does: once Register or
	// Unregister returns, the matches its flush barrier produced are
	// counted as emitted, so the checkpoint round that makes the call
	// durable waits for them.
	if !f.suppress {
		rs.deliver(f)
	}
	if reply != nil {
		reply <- replyErr
	}
	if f.kind == msgEdges && !f.closing {
		// Pop the frame's spans only now that Router.deliver has counted
		// its matches as emitted: the durable checkpoint barrier
		// (durable.go's checkpointRound) reads the emitted counter after
		// observing the spans, and must never see an edge unpinned while
		// its matches are still uncounted. Until then other goroutines
		// (the ingest-path trim, a checkpoint round) see the span
		// pinned a little longer, the safe side; the one reader of
		// deliveredEnd, a reconnect's rebuild, starts only after drop
		// has waited for this goroutine to exit.
		rs.mu.Lock()
		if f.end > rs.deliveredEnd {
			rs.deliveredEnd = f.end
		}
		for len(rs.spans) > 0 && rs.spans[0].end <= f.end {
			rs.spans = rs.spans[1:]
		}
		rs.recomputePinLocked()
		rs.mu.Unlock()
	}
	select {
	case rs.wake <- struct{}{}:
	default:
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
// Caller holds rs.mu.
func (rs *remoteSlot) adoptSnapshotLocked(data []byte) {
	if data == nil {
		return
	}
	rs.snap = data
	rs.snapSeq = rs.deliveredEnd
	rs.snapUniversal = rs.ackUniversal
	rs.snapTypes = append([]string(nil), rs.ackTypes...)
	rs.cover.Store(rs.snapSeq)
	// Retire every acknowledged control event: acknowledged before the
	// checkpoint means processed before the snapshot was taken, so the
	// image embeds its effect and a reconnect replay no longer needs
	// it. regs and liveRegs are untouched — the registrations are still
	// live, their replay entitlement is just the snapshot now. This is
	// what un-freezes the pin floor: the retired register events'
	// registration-time window floors stop holding the EdgeLog.
	kept := rs.events[:0]
	for _, ev := range rs.events {
		if !ev.acked {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(rs.events); i++ {
		rs.events[i] = nil
	}
	rs.events = kept
	rs.recomputePinLocked()
}

// deliver forwards one acknowledged frame's matches, copied out of the
// decoder's memory into blocks from the router's free list: per-seq
// bundles in ordered mode, collection blocks otherwise.
func (rs *remoteSlot) deliver(f inflightFrame) {
	w := rs.w
	w.matchesEmitted.Add(int64(len(f.matches)))
	if w.bundles != nil && f.kind == msgEdges && !f.closing {
		idx := 0
		for seq := f.base; seq < f.end; seq++ {
			b := bundle{seq: seq}
			lo := idx
			for idx < len(f.matches) && f.matches[idx].Seq == seq {
				idx++
			}
			if idx > lo {
				b.block = w.r.blockOf(f.matches[lo:idx])
			}
			w.bundles <- b
		}
		return
	}
	for lo := 0; lo < len(f.matches); lo += blockSize {
		w.r.deliver(w.r.blockOf(f.matches[lo:min(lo+blockSize, len(f.matches))]))
	}
}

// fromWire converts a protocol match into the runtime's portable form.
func fromWire(shardID int, m dshard.Match) Match {
	return Match{
		Seq: m.Seq, Shard: shardID, Query: m.Query, rank: m.Rank,
		FirstTS: m.FirstTS, LastTS: m.LastTS,
		Bindings: m.Bindings, Edges: m.Edges,
	}
}

// retire clears every log pin the slot holds, permanently: a retired
// slot owns no registrations (the caller migrated them away) and will
// never be re-backfilled, so nothing entitles it to retained log
// segments. Without this a retired slot's last snapshot position
// would pin the EdgeLog by seq forever. Called under the router's
// ingestMu, after the slot's queue is closed.
func (rs *remoteSlot) retire() {
	rs.mu.Lock()
	rs.snap = nil
	rs.pin.Store(math.MaxInt64)
	rs.cover.Store(math.MaxUint64)
	rs.mu.Unlock()
}

// remoteRegisterError wraps an engine error string reported by the
// remote worker.
type remoteRegisterError string

func (e remoteRegisterError) Error() string { return string(e) }
