package dshard

// The remote shard worker: one listener, one fresh engine per
// connection. A connection IS a shard's lifetime — the router rebuilds
// a reconnecting shard by replaying its control events and the shared
// edge log, so the worker keeps no state across connections and
// crash-recovery needs no persistence layer here.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"

	"streamgraph/internal/core"
	"streamgraph/internal/persist"
	"streamgraph/internal/query"
)

// Server accepts remote-shard connections and hosts one shard engine
// per connection.
type Server struct {
	// Logf, when non-nil, receives one line per connection open/close
	// (log.Printf signature).
	Logf func(format string, args ...any)

	// LegacyV1 makes the server behave exactly like a v1-only binary:
	// it accepts only ProtocolVersionLegacy hellos and never sends a
	// hello-ack, rejecting v2 clients by closing the connection. It
	// exists so the client-side fallback path (a new router dialing an
	// old sgshard) is testable without an old binary.
	LegacyV1 bool

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns an idle server.
func NewServer() *Server {
	return &Server{conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close, hosting each on its own
// goroutine. It returns the accept error that ended the loop
// (net.ErrClosed after Close).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("dshard: server is closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		// Registered under the same critical section that Close's
		// closed-check observes, so Close's Wait can never pass before a
		// just-accepted handler is counted.
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(c)
		}()
	}
}

// ServeConn hosts one already-established connection on the calling
// goroutine's behalf (it spawns the handler itself and returns
// immediately), with the same lifecycle accounting as accepted
// connections. It exists for in-process transports: the router's
// hospice failover engine speaks the protocol over a net.Pipe end.
func (s *Server) ServeConn(c net.Conn) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return fmt.Errorf("dshard: server is closed")
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		s.handle(c)
	}()
	return nil
}

// Kick severs every live connection without stopping the listener: the
// routers on the other end observe a broken connection and rebuild
// over a fresh one. It exists for failover drills and tests.
func (s *Server) Kick() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// Close stops accepting, severs live connections and waits for their
// handlers to return.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) handle(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	cn := NewConn(c)
	if err := (&host{cn: cn, legacy: s.LegacyV1}).run(); err != nil {
		s.logf("dshard: %s: %v", c.RemoteAddr(), err)
	}
}

// ListenAndServe listens on addr and serves until the process exits;
// the convenience entry point cmd/sgshard wraps.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("dshard: listening on %s", ln.Addr())
	return s.Serve(ln)
}

// host is the engine side of one connection: the exact remote
// counterpart of internal/shard's local worker goroutine.
type host struct {
	cn  *Conn
	eng *core.MultiEngine

	// admit mirrors the engine's replica filter by type name, for the
	// lastEnd (flush-barrier) bookkeeping.
	admit     map[string]bool
	universal bool
	types     int64 // gauge: filter width, -1 when universal

	// ranks maps registered query names to their global registration
	// rank, echoed on match frames.
	ranks map[string]int

	// lastEnd is the arrival seq just past the last edge this engine
	// admitted — the retrospective-repair flush barrier, with exactly
	// the semantics of the local worker's field: a control point at
	// stream position p flushes pending lazy repairs iff lastEnd < p
	// (the serial schedule drained them at an edge this shard's filter
	// skipped).
	lastEnd uint64

	// streamed flips once any state-bearing frame has been handled; a
	// restore frame is only legal before it (right after hello).
	streamed bool

	// legacy mirrors Server.LegacyV1: refuse v2 hellos like an old
	// binary would.
	legacy bool

	// bindings and edges are the slabs every match of the connection
	// resolves into: WriteMatch has encoded a match by the time it
	// returns, so the next one overwrites it.
	bindings []Binding
	edges    []MatchEdge
}

func (h *host) run() error {
	typ, body, err := h.cn.ReadFrame()
	if err != nil {
		return err
	}
	if typ != FrameHello {
		return fmt.Errorf("expected hello, got frame 0x%02x", typ)
	}
	hello, err := DecodeHello(body)
	if err != nil {
		return err
	}
	switch hello.Version {
	case ProtocolVersionLegacy:
		// v1 peer: plain encoding, no ack. A v1 client's reader treats
		// unknown server frames as protocol violations, so the server
		// must stay silent here.
	case ProtocolVersion:
		if h.legacy {
			// Simulating an old binary: reject like v1 code would.
			return fmt.Errorf("protocol version %d, want %d", hello.Version, ProtocolVersionLegacy)
		}
		granted := hello.Caps & (CapDict | CapCompress)
		if err := h.cn.WriteHelloAck(HelloAck{Version: ProtocolVersion, Caps: granted}); err != nil {
			return err
		}
		h.cn.Negotiate(granted)
	default:
		return fmt.Errorf("protocol version %d, want %d or %d",
			hello.Version, ProtocolVersion, ProtocolVersionLegacy)
	}
	h.eng = core.NewMulti(core.MultiConfig{Window: hello.Window, EvictEvery: hello.EvictEvery})
	h.ranks = make(map[string]int)
	h.universal = hello.UniversalFilter
	if h.universal {
		h.types = -1
	} else {
		h.eng.SetReplicaFilter(nil, false)
		h.admit = map[string]bool{}
	}
	for {
		typ, body, err := h.cn.ReadFrame()
		if err != nil {
			return err
		}
		switch typ {
		case FrameEdges:
			m, err := h.cn.DecodeEdges(body)
			if err != nil {
				return err
			}
			if err := h.handleEdges(m); err != nil {
				return err
			}
		case FrameRegister:
			m, err := h.cn.DecodeRegister(body)
			if err != nil {
				return err
			}
			if err := h.handleRegister(m); err != nil {
				return err
			}
		case FrameBackfill:
			m, err := h.cn.DecodeBackfill(body)
			if err != nil {
				return err
			}
			// Continuation of a register frame's backfill; ignored when
			// the register itself errored (the query never took effect,
			// so neither may its backfill).
			if _, ok := h.ranks[m.Name]; ok {
				h.eng.Backfill(m.Edges)
			}
			if err := h.done(m.Frame, nil); err != nil {
				return err
			}
		case FrameUnregister:
			m, err := h.cn.DecodeUnregister(body)
			if err != nil {
				return err
			}
			if err := h.handleUnregister(m); err != nil {
				return err
			}
		case FrameCheckpoint:
			m, err := DecodeCheckpoint(body)
			if err != nil {
				return err
			}
			if err := h.handleCheckpoint(m); err != nil {
				return err
			}
		case FrameRestore:
			m, err := DecodeRestore(body)
			if err != nil {
				return err
			}
			if err := h.handleRestore(m); err != nil {
				return err
			}
		case FrameClose:
			m, err := DecodeCloseStream(body)
			if err != nil {
				return err
			}
			if err := h.flushRetro(m.Frame, m.FinalSeq, false); err != nil {
				return err
			}
			return h.done(m.Frame, nil)
		default:
			return fmt.Errorf("unexpected frame 0x%02x", typ)
		}
		if typ != FrameCheckpoint {
			h.streamed = true
		}
	}
}

func (h *host) handleEdges(m Edges) error {
	if h.universal {
		h.lastEnd = m.BaseSeq + uint64(len(m.Edges))
	} else {
		for i := len(m.Edges) - 1; i >= 0; i-- {
			if h.admit[m.Edges[i].Type] {
				h.lastEnd = m.BaseSeq + uint64(i) + 1
				break
			}
		}
	}
	for i, named := range h.eng.ProcessBatchGrouped(m.Edges) {
		if m.Suppress {
			continue
		}
		seq := m.BaseSeq + uint64(i)
		for _, nm := range named {
			if err := h.match(m.Frame, seq, nm); err != nil {
				return err
			}
		}
	}
	return h.done(m.Frame, nil)
}

func (h *host) handleRegister(m Register) error {
	if err := h.flushRetro(m.Frame, m.Seq, m.Suppress); err != nil {
		return err
	}
	q, err := query.Parse(m.Query)
	if err == nil {
		cfg := core.Config{
			Strategy:            core.Strategy(m.Strategy),
			MaxMatchesPerSearch: m.MaxMatches,
			MaxWorkPerEdge:      m.MaxWork,
			MaxStepsPerSearch:   m.MaxSteps,
			BatchWorkers:        m.Workers,
		}
		if m.HasLeaves {
			cfg.Leaves = m.Leaves
		}
		err = h.eng.Register(m.Name, q, cfg)
	}
	if err == nil {
		h.ranks[m.Name] = m.Rank
		h.setFilter(m.FilterUniversal, m.FilterTypes)
		h.eng.Backfill(m.Backfill)
		if len(m.State) > 0 {
			// Live migration in: the frame carries the source slot's
			// partial-match state for this query; transplant it into the
			// fresh registration on top of the backfilled replica. A
			// corrupt image must not half-apply: kill the connection like
			// handleRestore does, so the router replays the registration
			// (State and all) on a fresh engine instead of running a
			// query that silently lost its spanning matches.
			tmp, terr := persist.LoadMulti(bytes.NewReader(m.State))
			if terr == nil {
				_, terr = persist.TransplantState(h.eng, tmp, m.Name)
			}
			if terr != nil {
				return fmt.Errorf("migrate state for %q: %w", m.Name, terr)
			}
		}
	}
	return h.done(m.Frame, err)
}

func (h *host) handleUnregister(m Unregister) error {
	if _, ok := h.ranks[m.Name]; ok {
		// A migration's source-side removal skips the flush barrier:
		// the pending retrospective work was transplanted to the target
		// slot inside the migration's state image and will drain there —
		// flushing here too would emit those repairs twice.
		if !m.Migrate {
			if err := h.flushRetro(m.Frame, m.Seq, m.Suppress); err != nil {
				return err
			}
		}
		h.eng.Unregister(m.Name)
		delete(h.ranks, m.Name)
		h.setFilter(m.FilterUniversal, m.FilterTypes)
		h.eng.TrimReplica()
	}
	return h.done(m.Frame, nil)
}

// handleCheckpoint serializes the whole engine state and streams it
// back before the done frame, mirroring the match-then-done
// discipline. Snapshotting is best-effort: an image the frame limit
// cannot carry (or one SaveMulti refuses to build) is simply not sent,
// and the router keeps whatever snapshot it already holds — the done
// frame must still arrive so the request pipeline keeps moving.
func (h *host) handleCheckpoint(m Checkpoint) error {
	if data, err := h.snapshotImage(); err == nil && len(data)+32 <= MaxFrame {
		if err := h.cn.WriteSnapshot(Snapshot{Frame: m.Frame, Data: data}); err != nil {
			return err
		}
	}
	return h.done(m.Frame, nil)
}

// handleRestore replaces the engine with a previously captured
// snapshot. Only legal directly after hello: the router sends it as
// the first frame of a reconnect, before replaying the log tail.
func (h *host) handleRestore(m Restore) error {
	if h.streamed {
		return fmt.Errorf("restore frame after stream traffic")
	}
	lastEnd, universal, types, ranks, image, err := decodeSnapshotImage(m.Data)
	if err != nil {
		return err
	}
	eng, err := persist.LoadMulti(bytes.NewReader(image))
	if err != nil {
		// The engine was not replaced; a done-with-error here would
		// leave the router believing the restore took effect while the
		// worker runs an empty engine. Kill the connection instead —
		// the router drops its (evidently bad) snapshot and rebuilds
		// from the log alone.
		return fmt.Errorf("restore snapshot: %w", err)
	}
	h.eng = eng
	h.ranks = ranks
	// LoadMulti leaves the replica filter universal; re-apply the
	// filter the snapshot captured.
	h.setFilter(universal, types)
	h.lastEnd = lastEnd
	return h.done(m.Frame, nil)
}

// snapshotImage encodes the host's connection-scoped state (flush
// barrier, replica filter, ranks) followed by the engine image.
func (h *host) snapshotImage() ([]byte, error) {
	b := binary.AppendUvarint(nil, h.lastEnd)
	b = appendBool(b, h.universal)
	types := make([]string, 0, len(h.admit))
	for tp := range h.admit {
		types = append(types, tp)
	}
	sort.Strings(types)
	b = appendStrings(b, types)
	names := make([]string, 0, len(h.ranks))
	for name := range h.ranks {
		names = append(names, name)
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = appendString(b, name)
		b = binary.AppendUvarint(b, uint64(h.ranks[name]))
	}
	var buf bytes.Buffer
	buf.Write(b)
	if err := persist.SaveMulti(&buf, h.eng); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SnapshotImage is the decoded form of a worker snapshot: the
// connection-scoped header plus the opaque persist.SaveMulti engine
// image. The router's migration path decodes a retained snapshot to
// extract a departing query's state and re-encodes it with the query
// stripped, so a later reconnect restore cannot resurrect it.
type SnapshotImage struct {
	LastEnd   uint64
	Universal bool
	Types     []string
	Ranks     map[string]int
	Engine    []byte
}

// DecodeSnapshotImage parses a snapshot frame's payload.
func DecodeSnapshotImage(data []byte) (SnapshotImage, error) {
	lastEnd, universal, types, ranks, image, err := decodeSnapshotImage(data)
	if err != nil {
		return SnapshotImage{}, err
	}
	return SnapshotImage{LastEnd: lastEnd, Universal: universal, Types: types, Ranks: ranks, Engine: image}, nil
}

// Encode serializes the image back into the snapshot wire form
// (snapshotImage's exact layout).
func (si SnapshotImage) Encode() []byte {
	b := binary.AppendUvarint(nil, si.LastEnd)
	b = appendBool(b, si.Universal)
	types := append([]string(nil), si.Types...)
	sort.Strings(types)
	b = appendStrings(b, types)
	names := make([]string, 0, len(si.Ranks))
	for name := range si.Ranks {
		names = append(names, name)
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = appendString(b, name)
		b = binary.AppendUvarint(b, uint64(si.Ranks[name]))
	}
	return append(b, si.Engine...)
}

// decodeSnapshotImage splits a snapshot image back into the host
// header and the engine image (the undecoded remainder).
func decodeSnapshotImage(data []byte) (lastEnd uint64, universal bool, types []string, ranks map[string]int, image []byte, err error) {
	d := dec{b: data}
	lastEnd = d.uvarint()
	universal = d.bool_()
	types = d.strings()
	n := d.count("ranks", 2)
	ranks = make(map[string]int, n)
	for i := 0; i < n && d.err == nil; i++ {
		name := d.string_()
		ranks[name] = int(d.uvarint())
	}
	if d.err != nil {
		return 0, false, nil, nil, nil, d.err
	}
	return lastEnd, universal, types, ranks, d.b, nil
}

// flushRetro runs the engine's queued retrospective repairs when the
// stream has moved past this shard's last admitted edge; see the local
// worker's flushRetro for the schedule argument. With a universal
// filter the shard receives every edge, lastEnd always equals p, and
// this never fires — matching the local full-replica worker.
func (h *host) flushRetro(frame, p uint64, suppress bool) error {
	if h.lastEnd == 0 || h.lastEnd >= p {
		return nil
	}
	for _, nm := range h.eng.FlushPending() {
		if suppress {
			continue
		}
		if err := h.match(frame, h.lastEnd, nm); err != nil {
			return err
		}
	}
	return nil
}

func (h *host) setFilter(universal bool, types []string) {
	h.universal = universal
	if universal {
		h.admit = nil
		h.types = -1
		h.eng.SetReplicaFilter(nil, true)
		return
	}
	h.admit = make(map[string]bool, len(types))
	for _, tp := range types {
		h.admit[tp] = true
	}
	h.types = int64(len(types))
	h.eng.SetReplicaFilter(types, false)
}

// match resolves one engine match into portable name-based form (the
// shared core.MultiEngine.AppendResolved walk, identical to the local
// worker's) and streams it; resolution happens here, while the bound
// edges are certainly still live in the replica.
func (h *host) match(frame, seq uint64, nm core.NamedMatch) error {
	h.bindings, h.edges = h.eng.AppendResolved(h.bindings[:0], h.edges[:0], nm)
	return h.cn.WriteMatch(Match{
		Frame: frame, Query: nm.Query, Rank: h.ranks[nm.Query], Seq: seq,
		FirstTS: nm.Match.MinTS, LastTS: nm.Match.MaxTS,
		Bindings: h.bindings, Edges: h.edges,
	})
}

func (h *host) done(frame uint64, engErr error) error {
	d := Done{
		Frame:  frame,
		Live:   int64(h.eng.Graph().NumEdges()),
		Stored: h.eng.EdgesStored(),
		Types:  h.types,
	}
	if engErr != nil {
		d.Err = engErr.Error()
	}
	return h.cn.WriteDone(d)
}
