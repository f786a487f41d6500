package dshard

// The remote shard worker: one listener, one fresh engine per
// connection. A connection IS a shard's lifetime — the router rebuilds
// a reconnecting shard by replaying its control events and the shared
// edge log, so the worker keeps no state across connections and
// crash-recovery needs no persistence layer here.

import (
	"bytes"
	"fmt"
	"net"
	"sync"

	"streamgraph/internal/core"
	"streamgraph/internal/persist"
	"streamgraph/internal/query"
)

// Server accepts remote-shard connections and hosts one shard engine
// per connection.
type Server struct {
	// Logf, when non-nil, receives ListenAndServe's listening line and
	// one line per connection that ends in an error (log.Printf
	// signature); nil logs nothing.
	Logf func(format string, args ...any)

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
// (net.ErrClosed after Close); a server closed before Serve closes ln.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
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
	if err := (&host{cn: NewConn(c)}).run(); err != nil {
		s.logf("dshard: %s: %v", c.RemoteAddr(), err)
	}
}

// ListenAndServe listens on addr and serves until Close, reporting the
// bound address through Logf.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logf("dshard: listening on %s", ln.Addr())
	return s.Serve(ln)
}

// host is the engine side of one connection: a Slot fed from frames,
// its matches streamed back as match frames. It is the remote
// counterpart of internal/shard's local worker goroutine, which drives
// the same Slot from a queue.
type host struct {
	cn   *Conn
	slot *Slot

	// streamed flips once any state-bearing frame has been handled; a
	// restore frame is only legal before it (right after hello).
	streamed bool

	// bindings and edges are the slabs every match of the connection
	// resolves into: WriteMatch has encoded a match by the time it
	// returns, so the next one overwrites it.
	bindings []Binding
	edges    []MatchEdge

	// werr is the first error writing a match frame. It sticks: later
	// matches are dropped, and the done frame every client frame ends in
	// reports it instead of acknowledging.
	werr error
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
	if hello.Version != ProtocolVersion {
		return fmt.Errorf("protocol version %d, want %d", hello.Version, ProtocolVersion)
	}
	granted := hello.Caps & (CapDict | CapCompress)
	if err := h.cn.WriteHelloAck(HelloAck{Version: ProtocolVersion, Caps: granted}); err != nil {
		return err
	}
	h.cn.Negotiate(granted)
	eng := core.NewMulti(core.MultiConfig{Window: hello.Window})
	h.slot = NewSlot(eng, hello.UniversalFilter)
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
			if _, held := h.slot.Rank(m.Name); held {
				h.slot.Eng.Backfill(m.Edges)
			}
			if err := h.done(m.Frame, nil); err != nil {
				return err
			}
		case FrameUnregister:
			m, err := h.cn.DecodeUnregister(body)
			if err != nil {
				return err
			}
			h.slot.Unregister(m.Seq, m.Name, m.Migrate, m.FilterUniversal, m.FilterTypes, h.emitter(m.Frame, m.Suppress))
			if err := h.done(m.Frame, nil); err != nil {
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
			h.slot.Flush(m.FinalSeq, h.emitter(m.Frame, false))
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
	emit := h.emitter(m.Frame, m.Suppress)
	for i, named := range h.slot.ProcessEdges(m.BaseSeq, m.Edges) {
		emit(m.BaseSeq+uint64(i), named)
	}
	return h.done(m.Frame, nil)
}

func (h *host) handleRegister(m Register) error {
	h.slot.Flush(m.Seq, h.emitter(m.Frame, m.Suppress))
	q, err := query.Parse(m.Query)
	if err != nil {
		return h.done(m.Frame, err)
	}
	r := SlotRegister{
		Name: m.Name, Query: q, Rank: m.Rank,
		Config: core.Config{
			Strategy:            core.Strategy(m.Strategy),
			MaxMatchesPerSearch: m.MaxMatches,
			MaxWorkPerEdge:      m.MaxWork,
			MaxStepsPerSearch:   m.MaxSteps,
		},
		Universal: m.FilterUniversal, Types: m.FilterTypes, Backfill: m.Backfill,
	}
	if m.HasLeaves {
		r.Config.Leaves = m.Leaves
	}
	if len(m.State) > 0 {
		// Live migration in: the frame carries the source slot's
		// partial-match state for this query. An image that does not
		// decode kills the connection, like a bad restore frame: the
		// router replays the registration on a fresh engine instead of
		// running a query that silently lost its spanning matches.
		if r.State, err = persist.LoadMulti(bytes.NewReader(m.State)); err != nil {
			return fmt.Errorf("migrate state for %q: %w", m.Name, err)
		}
	}
	return h.done(m.Frame, h.slot.Register(r))
}

// handleCheckpoint serializes the slot and streams it back before the
// done frame, mirroring the match-then-done discipline. Snapshotting is
// best-effort: an image the frame limit cannot carry (or one SaveMulti
// refuses to build) is simply not sent, and the router keeps whatever
// snapshot it already holds — the done frame must still arrive so the
// request pipeline keeps moving.
func (h *host) handleCheckpoint(m Checkpoint) error {
	if img, err := h.slot.Image(); err == nil {
		if data := img.Encode(); len(data)+32 <= MaxFrame {
			if err := h.cn.WriteSnapshot(Snapshot{Frame: m.Frame, Data: data}); err != nil {
				return err
			}
		}
	}
	return h.done(m.Frame, nil)
}

// handleRestore replaces the slot with a previously captured snapshot.
// Only legal directly after hello: the router sends it as the first
// frame of a reconnect, before replaying the log tail.
func (h *host) handleRestore(m Restore) error {
	if h.streamed {
		return fmt.Errorf("restore frame after stream traffic")
	}
	img, err := DecodeSnapshotImage(m.Data)
	if err != nil {
		return err
	}
	slot, err := img.Slot()
	if err != nil {
		// The slot was not replaced; a done-with-error here would leave
		// the router believing the restore took effect while the worker
		// runs an empty engine. Kill the connection instead — the router
		// drops its (evidently bad) snapshot and rebuilds from the log
		// alone.
		return fmt.Errorf("restore snapshot: %w", err)
	}
	h.slot = slot
	return h.done(m.Frame, nil)
}

// emitter streams the matches of one client frame — a batch's rows, or
// what a control frame's flush barrier completes (one closure per frame,
// beside a frame's worth of socket writes): each is resolved into
// portable name-based form (Slot.AppendResolved, the local worker's
// walk) while the bound edges are
// certainly still live in the replica. A suppressed frame's matches were
// delivered on an earlier connection and are dropped.
func (h *host) emitter(frame uint64, suppress bool) Emit {
	return func(seq uint64, nms []core.NamedMatch) {
		for _, nm := range nms {
			if suppress || h.werr != nil {
				return
			}
			var rank int
			h.bindings, h.edges, rank = h.slot.AppendResolved(h.bindings[:0], h.edges[:0], nm)
			h.werr = h.cn.WriteMatch(Match{
				Frame: frame, Query: nm.Query, Rank: rank, Seq: seq,
				FirstTS: nm.Match.MinTS, LastTS: nm.Match.MaxTS,
				Bindings: h.bindings, Edges: h.edges,
			})
		}
	}
}

func (h *host) done(frame uint64, engErr error) error {
	if h.werr != nil {
		return h.werr
	}
	d := Done{Frame: frame, Report: h.slot.Report()}
	if engErr != nil {
		d.Err = engErr.Error()
	}
	return h.cn.WriteDone(d)
}
