// Package server exposes the multi-query engine over a line-oriented
// TCP protocol, turning the library into the deployable service the
// paper's introduction sketches: organizations "register a pattern as a
// graph query and continuously perform the query on the data graph".
//
// The protocol is plain text, one command per line:
//
//	register <name> [strategy]   begin registering a query; the query
//	                             body follows in the textual query
//	                             format, terminated by a line "end"
//	unregister <name>            drop a query
//	edge <src> <srcLabel> <dst> <dstLabel> <type> <ts>
//	                             ingest one edge (fields tab- or
//	                             space-separated)
//	matches [max]                drain buffered asynchronous matches
//	                             (sharded mode only)
//	stats                        engine counters
//	quit                         close the connection
//
// Replies: "ok [detail]" on success, "err <reason>" on failure. Each
// edge's reply is "ok <n>" followed by n lines "match <query> <bindings>"
// — the complete matches that edge produced across all registered
// queries. Ingestion is serialized server-side (single-writer graph);
// any number of clients may connect.
//
// With Config.Shards > 0 the server runs on the sharded runtime
// (internal/shard) instead of a single MultiEngine: queries are
// partitioned across shard workers with edge-type-filtered graph
// replicas, ingestion is asynchronous, and matches are buffered
// server-side. The protocol shifts accordingly: "edge" replies "ok
// queued <seq>" immediately (no match lines), the "matches" command
// drains the buffered matches, and "stats" reports one extra line per
// shard with its queue depth, edges routed, matches emitted, replica
// size (live/stored edges) and replica type-filter width ("*" = the
// shard replicates every type).
package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"streamgraph/internal/core"
	"streamgraph/internal/metrics"
	"streamgraph/internal/query"
	"streamgraph/internal/shard"
	"streamgraph/internal/stream"
)

// Config parameterizes a Server.
type Config struct {
	// Window is tW shared by all queries (0 = unwindowed).
	Window int64
	// EvictEvery forwards to the engine (default 256).
	EvictEvery int
	// DefaultStrategy applies when a register command names none.
	// The zero value selects StrategySingleLazy.
	DefaultStrategy core.Strategy
	// MaxQueryLines bounds the register body (default 256).
	MaxQueryLines int
	// Shards, when > 0, serves from the sharded runtime: queries
	// partitioned across Shards workers, asynchronous match delivery
	// via the "matches" command.
	Shards int
	// Remotes lists remote shard worker addresses (sgshard processes);
	// each becomes one shard slot alongside the Shards local workers.
	// Setting Remotes selects the sharded runtime even with Shards ==
	// 0 (an all-remote topology). See shard.Config.Remotes.
	Remotes []string
	// ShardQueue bounds each shard's ingest queue (default 256).
	ShardQueue int
	// MatchBuffer bounds the server-side buffer of undelivered
	// asynchronous matches; the oldest are dropped (and counted) when
	// it overflows (default 4096). Sharded mode only.
	MatchBuffer int
	// DataDir, when set (Open only), makes the sharded runtime durable:
	// edges are appended to a segment-backed log under this directory
	// and engines checkpoint periodically, so a restart recovers the
	// registered queries and in-window graph state. See shard.Open and
	// docs/PERSISTENCE.md.
	DataDir string
	// CheckpointEvery is the durable checkpoint cadence in edges
	// (default 4096). Ignored without DataDir.
	CheckpointEvery int
}

// Server hosts one shared multi-query engine.
type Server struct {
	cfg   Config
	multi *core.MultiEngine // nil in sharded mode

	router        *shard.Router // nil unless cfg.Shards > 0 or cfg.Remotes set
	buf           *matchLog
	collectorDone chan struct{}

	// reg is the server's metrics registry: the router's own registry
	// in sharded mode (plus server-level buffer series), a private one
	// over the single engine otherwise. Always non-nil; read by the
	// `stats full` command and the /metrics debug endpoint.
	reg *metrics.Registry

	mu sync.Mutex // serializes engine access across connections

	lnMu   sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
}

// New returns a server with an empty engine. DataDir is ignored here;
// a durable server starts with Open.
func New(cfg Config) *Server {
	s := newServer(cfg)
	if cfg.Shards > 0 || len(cfg.Remotes) > 0 {
		s.attachRouter(shard.New(s.shardConfig()), nil)
	} else {
		s.multi = core.NewMulti(core.MultiConfig{Window: cfg.Window, EvictEvery: cfg.EvictEvery})
		s.initEngineMetrics()
	}
	return s
}

// Open is New for a durable data directory: the sharded runtime is
// recovered from cfg.DataDir (see shard.Open), matches regenerated by
// the recovery replay land in the asynchronous match buffer (drain
// them with the "matches" command; delivery across a restart is
// at-least-once), and Close commits a final checkpoint. DataDir
// implies the sharded runtime — with Shards == 0 and no Remotes, one
// shard worker is used.
func Open(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: Open requires Config.DataDir (use New for a volatile server)")
	}
	if cfg.Shards <= 0 && len(cfg.Remotes) == 0 {
		cfg.Shards = 1
	}
	s := newServer(cfg)
	r, recovered, err := shard.Open(s.shardConfig())
	if err != nil {
		return nil, err
	}
	s.attachRouter(r, recovered)
	return s, nil
}

func newServer(cfg Config) *Server {
	if cfg.DefaultStrategy == core.StrategySingle {
		cfg.DefaultStrategy = core.StrategySingleLazy
	}
	if cfg.MaxQueryLines <= 0 {
		cfg.MaxQueryLines = 256
	}
	if cfg.MatchBuffer <= 0 {
		cfg.MatchBuffer = 4096
	}
	return &Server{
		cfg:   cfg,
		conns: make(map[net.Conn]bool),
	}
}

func (s *Server) shardConfig() shard.Config {
	return shard.Config{
		Shards:          s.cfg.Shards,
		Remotes:         s.cfg.Remotes,
		QueueLen:        s.cfg.ShardQueue,
		Window:          s.cfg.Window,
		EvictEvery:      s.cfg.EvictEvery,
		DataDir:         s.cfg.DataDir,
		CheckpointEvery: s.cfg.CheckpointEvery,
	}
}

// attachRouter installs the sharded runtime and starts the collector
// goroutine the durable checkpoint barrier depends on (shard.Open's
// liveness contract: the match channel must always be drained).
func (s *Server) attachRouter(r *shard.Router, recovered []shard.Match) {
	s.router = r
	s.buf = &matchLog{limit: s.cfg.MatchBuffer}
	for _, m := range recovered {
		s.buf.add(m)
	}
	s.collectorDone = make(chan struct{})
	go func() {
		defer close(s.collectorDone)
		// A match is valid for its callback only; the log keeps copies.
		s.router.Drain(func(m shard.Match) { s.buf.add(m.Clone()) })
	}()
	s.reg = s.router.Metrics()
	s.reg.GaugeFunc("sg_server_match_buffer_depth", s.buf.depth)
	s.reg.CounterFunc("sg_server_matches_dropped_total", s.buf.totalDrops)
}

// initEngineMetrics builds the non-sharded registry: engine totals read
// under the ingest mutex at scrape time, plus a per-edge process
// latency histogram the engine records into.
func (s *Server) initEngineMetrics() {
	s.reg = metrics.NewRegistry()
	stat := func(f func(core.MultiStats) int64) func() int64 {
		return func() int64 {
			s.mu.Lock()
			st := s.multi.Stats()
			s.mu.Unlock()
			return f(st)
		}
	}
	s.reg.GaugeFunc("sg_engine_edges_processed", stat(func(st core.MultiStats) int64 { return st.EdgesProcessed }))
	s.reg.GaugeFunc("sg_engine_queries", stat(func(st core.MultiStats) int64 { return int64(st.Queries) }))
	s.reg.GaugeFunc("sg_engine_partial_matches", stat(func(st core.MultiStats) int64 { return st.PartialMatches }))
	s.multi.SetEdgeLatency(s.reg.Histogram("sg_edge_process_ns"), 1)
}

// Metrics returns the server's live metrics registry (the substrate
// behind the /metrics debug endpoint and the wire `stats full`
// command).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// PersistErr reports the first durable-write failure on a server
// started with Open (always nil for New). Once set, the stream keeps
// flowing in-memory but the data directory stays at its last
// committed checkpoint.
func (s *Server) PersistErr() error {
	if s.router == nil {
		return nil
	}
	return s.router.PersistErr()
}

// matchLog buffers asynchronous matches between "matches" commands:
// append-at-tail, drain-from-head, bounded by dropping the oldest.
type matchLog struct {
	mu      sync.Mutex
	items   []shard.Match
	head    int
	dropped int64 // since the last take (reported on the matches reply)
	drops   int64 // cumulative, never reset (metrics)
	limit   int
}

// depth reports the undelivered match count (metrics).
func (l *matchLog) depth() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.items) - l.head)
}

// totalDrops reports the cumulative overflow-drop count (metrics).
func (l *matchLog) totalDrops() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.drops
}

func (l *matchLog) add(m shard.Match) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.items = append(l.items, m)
	if len(l.items)-l.head > l.limit {
		l.head++
		l.dropped++
		l.drops++
	}
	if l.head > l.limit {
		l.items = append(l.items[:0], l.items[l.head:]...)
		l.head = 0
	}
}

// putBack reinserts matches a handler took but could not deliver (the
// connection broke mid-reply) at the FRONT of the buffer, restoring
// the given drop count, so another client can still drain them. A
// partially written match may be delivered twice after a reconnect —
// at-least-once beats silent loss. Overflow drops the re-added
// (oldest) entries first.
func (l *matchLog) putBack(ms []shard.Match, dropped int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropped += dropped
	if len(ms) == 0 {
		return
	}
	items := make([]shard.Match, 0, len(ms)+len(l.items)-l.head)
	items = append(items, ms...)
	items = append(items, l.items[l.head:]...)
	l.items, l.head = items, 0
	for len(l.items)-l.head > l.limit {
		l.head++
		l.dropped++
		l.drops++
	}
}

// take removes up to max buffered matches (all when max <= 0) and
// returns them with the drop count since the last take.
func (l *matchLog) take(max int) ([]shard.Match, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	avail := len(l.items) - l.head
	if max <= 0 || max > avail {
		max = avail
	}
	out := append([]shard.Match(nil), l.items[l.head:l.head+max]...)
	l.head += max
	if l.head == len(l.items) {
		l.items = l.items[:0]
		l.head = 0
	}
	dropped := l.dropped
	l.dropped = 0
	return out, dropped
}

// Serve accepts connections on ln until Close. It returns the accept
// error that terminated the loop (net.ErrClosed after Close).
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		return fmt.Errorf("server: already closed")
	}
	s.ln = ln
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.lnMu.Lock()
		if s.closed {
			s.lnMu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.lnMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, closes every live connection and waits for
// handlers to finish.
func (s *Server) Close() {
	s.lnMu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.lnMu.Unlock()
	s.wg.Wait()
	if s.router != nil {
		s.router.Close()
		<-s.collectorDone
	}
}

func (s *Server) dropConn(c net.Conn) {
	s.lnMu.Lock()
	delete(s.conns, c)
	s.lnMu.Unlock()
	c.Close()
}

func (s *Server) handle(conn net.Conn) {
	defer s.dropConn(conn)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	w := bufio.NewWriter(conn)
	reply := func(format string, args ...any) bool {
		fmt.Fprintf(w, format+"\n", args...)
		return w.Flush() == nil
	}
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "register":
			if len(fields) < 2 || len(fields) > 3 {
				if !reply("err usage: register <name> [strategy]") {
					return
				}
				continue
			}
			strat := s.cfg.DefaultStrategy
			if len(fields) == 3 {
				var ok bool
				strat, ok = parseStrategy(fields[2])
				if !ok {
					if !reply("err unknown strategy %q", fields[2]) {
						return
					}
					continue
				}
			}
			body, err := s.readQueryBody(sc)
			if err != nil {
				if !reply("err %v", err) {
					return
				}
				continue
			}
			if err := s.register(fields[1], body, strat); err != nil {
				if !reply("err %v", err) {
					return
				}
				continue
			}
			if !reply("ok registered %s", fields[1]) {
				return
			}
		case "unregister":
			if len(fields) != 2 {
				if !reply("err usage: unregister <name>") {
					return
				}
				continue
			}
			if s.router != nil {
				s.router.Unregister(fields[1])
			} else {
				s.mu.Lock()
				s.multi.Unregister(fields[1])
				s.mu.Unlock()
			}
			if !reply("ok") {
				return
			}
		case "migrate":
			if s.router == nil {
				if !reply("err migrate requires sharded mode (run with -shards)") {
					return
				}
				continue
			}
			if len(fields) != 4 {
				if !reply("err usage: migrate <name> <from> <to>") {
					return
				}
				continue
			}
			from, err1 := strconv.Atoi(fields[2])
			to, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil {
				if !reply("err bad slot number") {
					return
				}
				continue
			}
			if err := s.router.Migrate(fields[1], from, to); err != nil {
				if !reply("err %v", err) {
					return
				}
				continue
			}
			if !reply("ok migrated %s %d %d", fields[1], from, to) {
				return
			}
		case "rebalance":
			if s.router == nil {
				if !reply("err rebalance requires sharded mode (run with -shards)") {
					return
				}
				continue
			}
			if len(fields) != 1 {
				if !reply("err usage: rebalance") {
					return
				}
				continue
			}
			moved, err := s.router.Rebalance()
			if err != nil {
				if !reply("err %v", err) {
					return
				}
				continue
			}
			if !reply("ok moved %d", moved) {
				return
			}
		case "edge":
			e, err := parseEdge(fields[1:])
			if err != nil {
				if !reply("err %v", err) {
					return
				}
				continue
			}
			if s.router != nil {
				seq := s.router.Ingest(e)
				if !reply("ok queued %d", seq) {
					return
				}
				continue
			}
			s.mu.Lock()
			matches := s.multi.ProcessEdge(e)
			lines := make([]string, 0, len(matches))
			for _, nm := range matches {
				eng := s.multi.QueryEngine(nm.Query)
				if eng == nil {
					continue
				}
				lines = append(lines, fmt.Sprintf("match %s %s", nm.Query, eng.Explain(nm.Match)))
			}
			s.mu.Unlock()
			ok := reply("ok %d", len(lines))
			for _, ln := range lines {
				ok = ok && reply("%s", ln)
			}
			if !ok {
				return
			}
		case "matches":
			if s.router == nil {
				if !reply("err matches requires sharded mode (run with -shards)") {
					return
				}
				continue
			}
			max := 0
			if len(fields) == 2 {
				var err error
				max, err = strconv.Atoi(fields[1])
				if err != nil {
					if !reply("err bad max %q", fields[1]) {
						return
					}
					continue
				}
			}
			ms, dropped := s.buf.take(max)
			if !reply("ok %d dropped=%d", len(ms), dropped) {
				s.buf.putBack(ms, dropped)
				return
			}
			for i, m := range ms {
				if !reply("match %s %s", m.Query, m.BindingString()) {
					s.buf.putBack(ms[i:], 0)
					return
				}
			}
		case "stats":
			if len(fields) == 2 && fields[1] == "full" {
				// Full registry dump: one "metric" line per series, with
				// histograms as count/p50/p99/max. The bare "stats" reply
				// below is unchanged for existing tooling.
				samples := s.reg.Snapshot()
				lines := make([]string, 0, len(samples))
				for _, smp := range samples {
					id := smp.Name
					if ls := smp.LabelString(); ls != "" {
						id += "{" + ls + "}"
					}
					if smp.Hist != nil {
						lines = append(lines, fmt.Sprintf("metric %s count=%d p50=%d p99=%d max=%d",
							id, smp.Hist.Count(), smp.Hist.Quantile(0.5), smp.Hist.Quantile(0.99), smp.Hist.Max()))
					} else {
						lines = append(lines, fmt.Sprintf("metric %s %d", id, smp.Value))
					}
				}
				ok := reply("ok %d", len(lines))
				for _, ln := range lines {
					ok = ok && reply("%s", ln)
				}
				if !ok {
					return
				}
				continue
			}
			if len(fields) != 1 {
				if !reply("err usage: stats [full]") {
					return
				}
				continue
			}
			if s.router != nil {
				st := s.router.Stats()
				ok := reply("ok shards=%d edges=%d queries=%d",
					len(st), s.router.EdgesRouted(), len(s.router.Registered()))
				for _, sh := range st {
					types := fmt.Sprintf("%d", sh.ReplicaTypes)
					if sh.ReplicaTypes < 0 {
						types = "*"
					}
					ok = ok && reply("shard %d queries=%d queue=%d/%d routed=%d emitted=%d replica=%d/%d types=%s",
						sh.Shard, sh.Queries, sh.QueueDepth, sh.QueueCap, sh.EdgesRouted, sh.MatchesEmitted,
						sh.ReplicaEdges, sh.ReplicaStored, types)
				}
				if !ok {
					return
				}
				continue
			}
			s.mu.Lock()
			st := s.multi.Stats()
			s.mu.Unlock()
			if !reply("ok edges=%d queries=%d partial=%d",
				st.EdgesProcessed, st.Queries, st.PartialMatches) {
				return
			}
		case "quit":
			reply("ok bye")
			return
		default:
			if !reply("err unknown command %q", fields[0]) {
				return
			}
		}
	}
}

func (s *Server) readQueryBody(sc *bufio.Scanner) (string, error) {
	var lines []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "end" {
			return strings.Join(lines, "\n"), nil
		}
		lines = append(lines, line)
		if len(lines) > s.cfg.MaxQueryLines {
			return "", fmt.Errorf("query body exceeds %d lines", s.cfg.MaxQueryLines)
		}
	}
	return "", fmt.Errorf("connection ended inside query body")
}

func (s *Server) register(name, body string, strat core.Strategy) error {
	q, err := query.Parse(body)
	if err != nil {
		return err
	}
	if s.router != nil {
		return s.router.Register(name, q, core.Config{Strategy: strat})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The statistics of the window at this moment drive the
	// decomposition; a query registered before any traffic uses uniform
	// selectivities.
	return s.multi.Register(name, q, core.Config{Strategy: strat})
}

func parseEdge(fields []string) (stream.Edge, error) {
	if len(fields) != 6 {
		return stream.Edge{}, fmt.Errorf("usage: edge <src> <srcLabel> <dst> <dstLabel> <type> <ts>")
	}
	ts, err := strconv.ParseInt(fields[5], 10, 64)
	if err != nil {
		return stream.Edge{}, fmt.Errorf("bad timestamp %q", fields[5])
	}
	return stream.Edge{
		Src: fields[0], SrcLabel: fields[1],
		Dst: fields[2], DstLabel: fields[3],
		Type: fields[4], TS: ts,
	}, nil
}

func parseStrategy(s string) (core.Strategy, bool) {
	switch strings.ToLower(s) {
	case "single":
		return core.StrategySingle, true
	case "singlelazy":
		return core.StrategySingleLazy, true
	case "path":
		return core.StrategyPath, true
	case "pathlazy":
		return core.StrategyPathLazy, true
	case "vf2":
		return core.StrategyVF2, true
	case "inciso":
		return core.StrategyIncIso, true
	case "auto":
		return core.StrategyAuto, true
	}
	return 0, false
}
