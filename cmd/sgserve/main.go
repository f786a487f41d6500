// Command sgserve hosts the continuous pattern detection engine as a
// TCP service: clients register pattern queries and stream edges over a
// plain-text protocol, and the server reports every complete match as
// it emerges (see streamgraph/internal/server for the protocol).
//
// Example session (with `nc localhost 7687`):
//
//	register lateral
//	e attacker hop rdp
//	e hop store ftp
//	end
//	edge evil ip srv1 ip rdp 10
//	edge srv1 ip nas ip ftp 11
//
// The second edge completes the pattern and the server replies with
// "match lateral a=evil b=srv1 c=nas".
//
// With -shards N the server runs on the sharded runtime: queries are
// partitioned across N shard workers, "edge" replies "ok queued <seq>"
// immediately, completed matches are drained with the "matches"
// command, and "stats" reports per-shard queue depth, edges routed and
// matches emitted.
//
// With -remote host:port,... some (or all) of those shard slots live
// in remote sgshard processes: the server routes each slot's slice of
// the stream over the internal/dshard protocol and transparently
// replays after a remote reconnect. See docs/DISTRIBUTED.md.
//
// With -data-dir the runtime is durable: every admitted edge is
// appended to a segment-backed log and the engines checkpoint every
// -checkpoint-every edges, so a crash or restart recovers the
// registered queries and in-window graph state from disk. SIGINT and
// SIGTERM shut down gracefully — drain the shards, commit a final
// checkpoint, exit 0. See docs/PERSISTENCE.md.
//
// With -http addr the server additionally serves its observability
// endpoints on that address: /metrics (Prometheus text format),
// /debug/pprof/ and /debug/vars. The richer wire command "stats full"
// dumps the same registry over the line protocol. See
// docs/OBSERVABILITY.md.
package main

import (
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"streamgraph/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7687", "listen address")
		window     = flag.Int64("window", 0, "time window tW shared by all queries (0 = unwindowed)")
		shards     = flag.Int("shards", 0, "run on the sharded runtime with this many shard workers (0 = single engine); edge ingestion becomes asynchronous, matches are drained with the 'matches' command and 'stats' reports per-shard counters")
		shardQueue = flag.Int("shard-queue", 256, "per-shard ingest queue capacity (with -shards/-remote)")
		remote     = flag.String("remote", "", "comma-separated remote shard worker addresses (sgshard processes); each becomes one shard slot alongside the -shards local workers and selects the sharded runtime even with -shards 0")
		dataDir    = flag.String("data-dir", "", "durable data directory: append edges to a segment-backed log and checkpoint engines there, recovering queries and in-window state on restart (selects the sharded runtime; see docs/PERSISTENCE.md)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "durable checkpoint cadence in edges (default 4096; requires -data-dir)")
		httpAddr   = flag.String("http", "", "serve the observability endpoints (/metrics, /debug/pprof/, /debug/vars) on this address (see docs/OBSERVABILITY.md)")
	)
	flag.Parse()
	// Structured log lines on stderr (slog's text format: key=value
	// attributes); the process logger writes through the same handler.
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("cmd", "sgserve")
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// Installed before the listener (and its log line) exists, so a
	// signal arriving the instant the server is observable already
	// takes the graceful path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var remotes []string
	if *remote != "" {
		for _, a := range strings.Split(*remote, ",") {
			if a = strings.TrimSpace(a); a != "" {
				remotes = append(remotes, a)
			}
		}
	}

	cfg := server.Config{
		Window: *window,
		Shards: *shards, Remotes: remotes, ShardQueue: *shardQueue,
		DataDir: *dataDir, CheckpointEvery: *ckptEvery,
	}
	var srv *server.Server
	var err error
	if *dataDir != "" {
		if cfg.Shards <= 0 && len(remotes) == 0 {
			cfg.Shards = 1
		}
		srv, err = server.Open(cfg)
		if err != nil {
			fatal("open", "data_dir", *dataDir, "err", err)
		}
		logger.Info("durable", "data_dir", *dataDir, "checkpoint_every", *ckptEvery)
	} else {
		if *ckptEvery != 0 {
			fatal("-checkpoint-every requires -data-dir")
		}
		srv = server.New(cfg)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", "addr", *addr, "err", err)
	}
	var httpLn net.Listener
	if *httpAddr != "" {
		httpLn, err = net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal("listen", "http", *httpAddr, "err", err)
		}
		go http.Serve(httpLn, srv.DebugHandler())
		logger.Info("observability endpoints", "http", httpLn.Addr().String(), "paths", "/metrics /debug/pprof/ /debug/vars")
	}
	attrs := []any{"addr", ln.Addr().String(), "window", *window}
	if len(remotes) > 0 || *shards > 0 || *dataDir != "" {
		attrs = append(attrs, "shards", cfg.Shards, "remotes", strings.Join(remotes, ","))
	}
	logger.Info("listening on", attrs...)

	// SIGINT/SIGTERM drain the shards and, with -data-dir, commit a
	// final checkpoint before exiting 0 — a signal-stopped server
	// restarts from exactly where it left off.
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
	case err := <-serveErr:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			fatal("serve", "err", err)
		}
	}
	if httpLn != nil {
		httpLn.Close()
	}
	srv.Close()
	if err := srv.PersistErr(); err != nil {
		fatal("persist", "err", err)
	}
	logger.Info("shutdown complete")
}
