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
	remoteRecvBuffer  = 256
)

// WireMode selects the dshard wire encoding a remote slot negotiates
// (Config.Wire).
type WireMode int

const (
	// WireAuto negotiates the full encoding: per-connection string
	// dictionary, within-frame delta timestamps, per-frame compression.
	WireAuto WireMode = iota
	// WireDictOnly negotiates the dictionary and delta timestamps but
	// not compression, isolating what interning alone saves.
	WireDictOnly
)

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
	snapData  []byte // msgCheckpoint: the snapshot frame's payload
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

	// The latest engine snapshot the worker produced: the opaque image,
	// the stream position it covers (deliveredEnd when its checkpoint
	// was acknowledged), and the replica filter it embeds. A reconnect
	// restores it and replays only the log tail past snapSeq.
	snap          []byte
	snapSeq       uint64
	snapUniversal bool
	snapTypes     []string
	// snapGen counts snapshot adoptions. A migration's drain barrier
	// keys off it: requesting a checkpoint and waiting for the
	// generation to advance (with everything acknowledged) proves the
	// current snapshot serialized the engine at the barrier's stream
	// position — the image the migration extracts the query from.
	snapGen uint64
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

	// Wire telemetry (registerMetrics). liveConn tracks the current
	// connection so scrape-time wire totals can add its live counters
	// to the closed-connection accumulators below.
	connects *metrics.Counter
	replayed *metrics.Counter
	ackRTT   *metrics.AtomicHistogram
	liveConn atomic.Pointer[dshard.Conn]
	closedBytesIn, closedBytesOut,
	closedRawBytesIn, closedRawBytesOut,
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
	t.reg.CounterFunc("sg_dshard_bytes_in_total", wire(&rs.closedBytesIn, func(s dshard.ConnStats) int64 { return s.BytesIn }), "shard", sh)
	t.reg.CounterFunc("sg_dshard_bytes_out_total", wire(&rs.closedBytesOut, func(s dshard.ConnStats) int64 { return s.BytesOut }), "shard", sh)
	t.reg.CounterFunc("sg_dshard_raw_bytes_in_total", wire(&rs.closedRawBytesIn, func(s dshard.ConnStats) int64 { return s.RawBytesIn }), "shard", sh)
	t.reg.CounterFunc("sg_dshard_raw_bytes_out_total", wire(&rs.closedRawBytesOut, func(s dshard.ConnStats) int64 { return s.RawBytesOut }), "shard", sh)
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
	rs.closedRawBytesIn.Add(st.RawBytesIn)
	rs.closedRawBytesOut.Add(st.RawBytesOut)
	rs.closedFramesIn.Add(st.FramesIn)
	rs.closedFramesOut.Add(st.FramesOut)
}

func newRemoteSlot(w *worker, addr string, pendingCap int) *remoteSlot {
	rs := &remoteSlot{w: w, addr: addr, pendingCap: pendingCap, regs: make(map[string]*remoteEvent)}
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

// retire removes an event (and, for an acknowledged unregister, its
// paired registration) from the replay set. Caller holds rs.mu.
func (rs *remoteSlot) retireLocked(ev *remoteEvent) {
	drop := func(target *remoteEvent) {
		for i, e := range rs.events {
			if e == target {
				rs.events = append(rs.events[:i], rs.events[i+1:]...)
				return
			}
		}
	}
	drop(ev)
	if ev.kind == msgUnregister && ev.reg != nil {
		drop(ev.reg)
	}
	if ev.kind == msgRegister {
		// A failed registration: it never took effect remotely.
		if rs.regs[ev.msg.name] == ev {
			delete(rs.regs, ev.msg.name)
			rs.liveRegs--
		}
	}
	rs.recomputePinLocked()
}

// recvMsg carries one server frame from the reader goroutine.
type recvMsg struct {
	match *dshard.Match
	done  *dshard.Done
	snap  *dshard.Snapshot
}

// rebuildResult reports a finished rebuild: the log position replay
// covered (resuming live sends skip anything at or below it).
type rebuildResult struct {
	sentEnd uint64
	err     error
}

// run is the proxy's slot goroutine: the remote counterpart of
// worker.run.
func (rs *remoteSlot) run() {
	w := rs.w
	defer w.r.wg.Done()
	var (
		conn        *dshard.Conn
		recv        chan recvMsg
		redial      <-chan time.Time = time.After(0)
		backoff                      = remoteRedialMin
		rebuilding  bool
		rebuildDone chan rebuildResult
		sentEnd     uint64
		inClosed    bool
		closeSent   bool
		dialFails   int // consecutive dial failures, vs Config.RedialBudget
	)
	drop := func() {
		if conn != nil {
			rs.noteConnClosed(conn)
			conn.Close()
			conn = nil
		}
		if rebuilding {
			// The rebuild goroutine aborts promptly now that the
			// connection is closed; wait for it so no stale frame can
			// land in the inflight FIFO after connLost clears it.
			<-rebuildDone
			rebuilding = false
		}
		if recv != nil {
			// The reader exits on the closed connection; drain whatever
			// it has buffered (or is blocked sending) so it can.
			go func(ch chan recvMsg) {
				for range ch {
				}
			}(recv)
			recv = nil
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
		if !inClosed && !rebuilding && rs.pendingSpans() < rs.pendingCap {
			inCh = w.in
		}
		if inClosed && conn != nil && !rebuilding && !closeSent && rs.drained() {
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
		case rm, ok := <-recv:
			if !ok {
				drop()
				continue
			}
			fin, ok := rs.handleRecv(rm)
			if !ok {
				drop()
				continue
			}
			if fin {
				rs.finish(conn)
				return
			}
		case res := <-rebuildDone:
			rebuilding = false
			if res.err != nil {
				drop()
				continue
			}
			sentEnd = res.sentEnd
		case <-redial:
			redial = nil
			c, err := rs.connect()
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
			recv = make(chan recvMsg, remoteRecvBuffer)
			go rs.reader(conn, recv)
			rebuilding = true
			rebuildDone = make(chan rebuildResult, 1)
			go rs.rebuild(conn, rebuildDone)
		}
	}
}

// adoptHospice starts the failover engine: an in-process dshard.Server
// on a loopback listener, which the slot dials from then on instead of
// the dead peer. Loopback TCP, not an unbuffered in-memory pipe: the
// slot goroutine both writes frames and consumes the reader's bounded
// queue, so a transport with no buffer of its own deadlocks as soon as
// the server streams more matches than that queue holds while a write
// is pending.
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
// hospice after a failover — and runs the hello handshake: the hello
// offers the configured capability set, the server's hello-ack grants
// it. A failed handshake is a failed dial; the redial loop tries again.
func (rs *remoteSlot) connect() (*dshard.Conn, error) {
	c, err := net.DialTimeout("tcp", rs.addr, remoteDialTimeout)
	if err != nil {
		return nil, err
	}
	cn := dshard.NewConn(c)
	w := rs.w
	want := dshard.CapDict | dshard.CapCompress
	if w.r.cfg.Wire == WireDictOnly {
		want = dshard.CapDict
	}
	err = cn.WriteHello(dshard.Hello{
		Version:         dshard.ProtocolVersion,
		Slot:            w.id,
		Window:          w.r.cfg.Window,
		UniversalFilter: !w.r.filtering,
		Caps:            want,
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
	var ack dshard.HelloAck
	if err == nil {
		ack, err = dshard.DecodeHelloAck(body)
	}
	if err != nil {
		cn.Close()
		return nil, err
	}
	c.SetReadDeadline(time.Time{})
	cn.Negotiate(ack.Caps & want)
	return cn, nil
}

// reader pumps server frames into recv until the connection dies.
func (rs *remoteSlot) reader(conn *dshard.Conn, recv chan recvMsg) {
	defer close(recv)
	for {
		typ, body, err := conn.ReadFrame()
		if err != nil {
			return
		}
		switch typ {
		case dshard.FrameMatch:
			m, err := conn.DecodeMatch(body)
			if err != nil {
				return
			}
			recv <- recvMsg{match: &m}
		case dshard.FrameDone:
			d, err := dshard.DecodeDone(body)
			if err != nil {
				return
			}
			recv <- recvMsg{done: &d}
		case dshard.FrameSnapshot:
			m, err := dshard.DecodeSnapshot(body)
			if err != nil {
				return
			}
			// Data aliases the connection read buffer; the slot retains
			// the snapshot across frames (and connections), so copy.
			m.Data = append([]byte(nil), m.Data...)
			recv <- recvMsg{snap: &m}
		default:
			return
		}
	}
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
		Suppress: suppress, Name: m.name, Seq: m.seq, Rank: m.rank,
		Query: m.q.String(), Strategy: int(m.cfg.Strategy),
		HasLeaves: m.cfg.Leaves != nil, Leaves: m.cfg.Leaves,
		MaxMatches: m.cfg.MaxMatchesPerSearch, MaxWork: m.cfg.MaxWorkPerEdge, MaxSteps: m.cfg.MaxStepsPerSearch,
		FilterUniversal: m.postUniversal, FilterTypes: m.postTypes,
		// A migration's state image rides every (re)send of the frame:
		// a reconnect replay re-registers onto a fresh engine, which
		// needs the transplant again.
		State: m.state,
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
// exactly. Runs on its own goroutine so acknowledgments and matches
// stream back concurrently; the main loop does not send live traffic
// until it finishes.
func (rs *remoteSlot) rebuild(conn *dshard.Conn, done chan rebuildResult) {
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

	fail := func(err error) { done <- rebuildResult{err: err} }
	if snap != nil {
		// Restore the snapshot before any replayed traffic, then replay
		// only the tail past its position. The covered log prefix is
		// dropped here (a straddling segment is sliced — snapSeq is a
		// wire-chunk boundary, which may fall mid-batch); every retained
		// control event is uncovered and therefore at seq >= snapSeq, so
		// the seq-interleaved walk below is unchanged.
		id := rs.pushInflight(inflightFrame{kind: msgRestore})
		if conn.WriteRestore(dshard.Restore{Frame: id, Data: snap}) != nil {
			fail(net.ErrClosed)
			return
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
				fail(net.ErrClosed)
				return
			}
			si++
		}
		rs.mu.Lock()
		suppress := ev.acked
		ev.sent = true
		rs.mu.Unlock()
		if !rs.sendEvent(conn, ev, suppress) {
			fail(net.ErrClosed)
			return
		}
	}
	for ; si < len(segs); si++ {
		if admits(segs[si]) && !rs.sendSegment(conn, segs[si], delivered) {
			fail(net.ErrClosed)
			return
		}
	}
	done <- rebuildResult{sentEnd: logEnd}
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

// handleRecv dispatches one server frame. It returns (finished,
// ok): finished when the close barrier was acknowledged, !ok on a
// protocol violation (the connection is dropped and rebuilt).
func (rs *remoteSlot) handleRecv(rm recvMsg) (finished, ok bool) {
	w := rs.w
	if rm.match != nil {
		rs.mu.Lock()
		if len(rs.inflight) == 0 || rs.inflight[0].id != rm.match.Frame {
			rs.mu.Unlock()
			return false, false
		}
		rs.inflight[0].matches = append(rs.inflight[0].matches, fromWire(w.id, *rm.match))
		rs.mu.Unlock()
		return false, true
	}
	if rm.snap != nil {
		rs.mu.Lock()
		if len(rs.inflight) == 0 || rs.inflight[0].id != rm.snap.Frame || rs.inflight[0].kind != msgCheckpoint {
			rs.mu.Unlock()
			return false, false
		}
		rs.inflight[0].snapData = rm.snap.Data
		rs.mu.Unlock()
		return false, true
	}
	d := rm.done
	rs.mu.Lock()
	if len(rs.inflight) == 0 || rs.inflight[0].id != d.Frame {
		rs.mu.Unlock()
		return false, false
	}
	f := rs.inflight[0]
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
			if ev.kind == msgUnregister || d.Err != "" {
				rs.retireLocked(ev)
			}
			if d.Err == "" {
				// The worker applied this event's post-filter; a
				// snapshot taken at the current pipeline position will
				// embed it.
				rs.ackUniversal = ev.msg.postUniversal
				rs.ackTypes = ev.msg.postTypes
			}
		}
		if !ev.replied {
			ev.replied = true
			reply = ev.msg.reply
			if d.Err != "" {
				replyErr = remoteRegisterError(d.Err)
			}
		}
		if !first {
			f.matches = nil // matches of an already-delivered event were suppressed
		}
	}
	rs.mu.Unlock()
	w.publish(d.Report)

	// Deliver outside the lock: a full collection channel must
	// backpressure ingest, not deadlock Stats readers. And before the
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
		// (the ingest-path trim, a checkpoint round, a migration's drain
		// barrier) see the span pinned a little longer, the safe side;
		// the one reader of deliveredEnd, a reconnect's rebuild, starts
		// on this goroutine.
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
	rs.snapGen++
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

// snapshotGen reports the snapshot adoption count (see snapGen).
func (rs *remoteSlot) snapshotGen() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.snapGen
}

// snapshotCut returns the current snapshot image (nil when none).
// The slice is the adopted copy and must not be mutated.
func (rs *remoteSlot) snapshotCut() []byte {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.snap
}

// replaceSnapshot swaps the retained snapshot image in place (same
// stream position, new contents and embedded filter). The migration
// path uses it to strip an extracted query from the slot's restore
// state BEFORE the migrate-unregister is sent: if the connection dies
// mid-unregister, the reconnect restores the stripped image and
// replays the unregister as a harmless no-op — the query can never be
// resurrected on the source after its state left for the target.
func (rs *remoteSlot) replaceSnapshot(data []byte, universal bool, types []string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.snap == nil {
		return
	}
	rs.snap = data
	rs.snapUniversal = universal
	rs.snapTypes = append([]string(nil), types...)
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
