package dshard

// The remote shard worker: one listener, one Host over a fresh slot
// per connection. A connection IS a shard's lifetime — the router
// rebuilds a reconnecting shard by replaying its control events and the
// shared edge log, so the worker keeps no state across connections and
// crash-recovery needs no persistence layer here.

import (
	"fmt"
	"net"
	"sync"

	"streamgraph/internal/core"
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
	if err := serveConn(NewConn(c)); err != nil {
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

// serveConn runs one connection: the hello handshake, then a Host over
// a fresh slot, fed each frame's message until the close.
func serveConn(cn *Conn) error {
	typ, body, err := cn.ReadFrame()
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
	if err := cn.WriteHelloAck(HelloAck{Version: ProtocolVersion}); err != nil {
		return err
	}
	rep := &connReplier{cn: cn, slot: NewSlot(core.NewMulti(core.MultiConfig{Window: hello.Window}), hello.UniversalFilter)}
	h := NewHost(rep.slot, rep)
	for {
		typ, body, err := cn.ReadFrame()
		if err != nil {
			return err
		}
		switch typ {
		case FrameEdges:
			err = decoded(h.WriteEdges)(cn.DecodeEdges(body))
		case FrameRegister:
			err = decoded(h.WriteRegister)(cn.DecodeRegister(body))
		case FrameBackfill:
			err = decoded(h.WriteBackfill)(cn.DecodeBackfill(body))
		case FrameUnregister:
			err = decoded(h.WriteUnregister)(cn.DecodeUnregister(body))
		case FrameCheckpoint:
			err = decoded(h.WriteCheckpoint)(DecodeCheckpoint(body))
		case FrameRestore:
			err = decoded(h.WriteRestore)(DecodeRestore(body))
		case FrameClose:
			return decoded(h.WriteCloseStream)(DecodeCloseStream(body))
		default:
			err = fmt.Errorf("unexpected frame 0x%02x", typ)
		}
		if err != nil {
			return err
		}
	}
}

// decoded hands a decoded message to the Host method of its type, or
// returns the decode error.
func decoded[M any](write func(M) error) func(M, error) error {
	return func(m M, err error) error {
		if err != nil {
			return err
		}
		return write(m)
	}
}

// connReplier answers a connection's frames: each match resolved into
// scratch slabs and queued as a frame at once (so the next one
// overwrites the slabs), the snapshot and the done as frames; the done
// flushes what the answer queued.
type connReplier struct {
	cn   *Conn
	slot *Slot

	bindings []Binding
	edges    []MatchEdge

	// werr is the first error writing a match frame. It sticks: later
	// matches are dropped, and the done every client frame ends in
	// reports it instead of acknowledging.
	werr error
}

func (r *connReplier) Matches(frame, seq uint64, nms []core.NamedMatch) {
	for _, nm := range nms {
		if r.werr != nil {
			return
		}
		var rank int
		r.bindings, r.edges, rank = r.slot.AppendResolved(r.bindings[:0], r.edges[:0], nm)
		r.werr = r.cn.WriteMatch(Match{
			Frame: frame, Query: nm.Query, Rank: rank, Seq: seq,
			FirstTS: nm.Match.MinTS, LastTS: nm.Match.MaxTS,
			Bindings: r.bindings, Edges: r.edges,
		})
	}
}

func (r *connReplier) Flushed(frame, seq uint64, nms []core.NamedMatch) { r.Matches(frame, seq, nms) }

func (r *connReplier) Snapshot(m Snapshot) error { return r.cn.WriteSnapshot(m) }

func (r *connReplier) Done(d Done) error {
	if r.werr != nil {
		return r.werr
	}
	return r.cn.WriteDone(d)
}
