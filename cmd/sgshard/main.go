// Command sgshard runs a remote shard worker: one process-boundary
// slot of the sharded continuous-pattern-detection runtime. A router
// (sgserve -remote, or any program embedding internal/shard with
// Config.Remotes) connects over TCP, registers the queries it assigns
// to this slot, streams admitted edge batches, and receives every
// completed match back — the internal/dshard protocol.
//
// The worker is deliberately stateless across connections: if the
// connection (or this process) dies, the router reconnects and rebuilds
// the worker's engine by replaying its control events and the shared
// edge log. Running it is therefore as boring as it should be:
//
//	sgshard -addr :7700
//
// and on the serving side:
//
//	sgserve -shards 2 -remote shardhost:7700 -window 3600
//
// One sgshard process can host many slots (each connection gets its own
// engine), so a small deployment can point several routers — or several
// slots of one router — at a single worker process.
//
// SIGINT and SIGTERM close the listener and every router connection,
// then exit 0; routers treat it as an ordinary disconnect and rebuild
// the slot on reconnect.
//
// See docs/DISTRIBUTED.md for the protocol specification, deployment
// topologies and failure modes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"

	"streamgraph/internal/dshard"
)

func main() {
	var (
		addr  = flag.String("addr", "127.0.0.1:7700", "listen address for router connections")
		quiet = flag.Bool("quiet", false, "suppress per-connection log lines")
	)
	flag.Parse()
	// Structured log lines on stderr (slog's text format: key=value
	// attributes).
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("cmd", "sgshard")
	slog.SetDefault(logger)

	// SIGINT/SIGTERM sever the router connections and exit 0. The
	// worker holds no durable state — routers rebuild it on reconnect
	// from their checkpoint and edge log — so a clean close is all a
	// shutdown needs. Installed before the listener exists so a signal
	// arriving the instant the worker is observable takes this path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	srv := dshard.NewServer()
	if !*quiet {
		srv.Logf = func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) }
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	// Logged here, not through srv.Logf, so -quiet keeps it: it is the
	// line a supervisor waits for.
	logger.Info("listening on", "addr", ln.Addr().String())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
		srv.Close()
	case err := <-serveErr:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			logger.Error("serve", "err", err)
			os.Exit(1)
		}
	}
	logger.Info("shutdown complete")
}
