package experiments

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/dshard"
	"streamgraph/internal/metrics"
	"streamgraph/internal/shard"
	"streamgraph/internal/stream"
)

// DshardRow is one cell of the distributed-runtime comparison: one
// topology (serial engine, in-process shard runtime, all-remote or
// mixed local/remote over loopback TCP) driving the same queries over
// the same stream.
type DshardRow struct {
	// Mode is "serial", "inproc", "remote" or "mixed".
	Mode string `json:"mode"`
	// Local and Remote count the slot kinds in the topology.
	Local  int `json:"local"`
	Remote int `json:"remote"`
	// Queries, Edges and Matches describe the workload; a Matches
	// divergence across rows would falsify the runtime (exactness
	// itself is enforced by the differential tests in internal/shard).
	Queries int   `json:"queries"`
	Edges   int   `json:"edges"`
	Matches int64 `json:"matches"`
	// Elapsed and EdgesPerSec measure ingest-to-drain throughput;
	// Speedup is relative to the serial row.
	Elapsed     time.Duration `json:"elapsed_ns"`
	EdgesPerSec float64       `json:"edges_per_sec"`
	Speedup     float64       `json:"speedup"`
	// WireMB is the total protocol traffic in MiB (0 for in-process
	// modes): edges fan out to every interested remote slot, matches
	// and acknowledgments come back. It is metered at the TCP layer,
	// post-compression — the bytes that actually crossed the wire.
	WireMB float64 `json:"wire_mb"`
	// WireMBRaw and WireMBSent split the same traffic into logical
	// (pre-compression) and sent (post-compression) bytes as accounted
	// by the protocol layer: WireMBSent/WireMBRaw is the
	// frame-compression ratio.
	WireMBRaw  float64 `json:"wire_mib_raw"`
	WireMBSent float64 `json:"wire_mib_sent"`
	// MatchLagP50NS, MatchLagP99NS and MatchLagMaxNS are end-to-end
	// match-lag quantiles in nanoseconds (see ShardRow); for remote
	// modes the lag includes the wire round-trip. Zero for serial.
	MatchLagP50NS int64 `json:"match_lag_p50_ns"`
	MatchLagP99NS int64 `json:"match_lag_p99_ns"`
	MatchLagMaxNS int64 `json:"match_lag_max_ns"`
}

// DshardConfig parameterizes the distributed-runtime experiment.
type DshardConfig struct {
	// Dataset supplies the stream.
	Dataset Dataset
	// NumQueries standing queries rotate through the dataset's edge
	// types (default 6).
	NumQueries int
	// Slots is the total shard-slot count per sharded topology
	// (default 2).
	Slots int
	// Batch is the ingest chunk size for every mode (default 512).
	Batch int
	// Window is tW (default 2000).
	Window int64
	// MaxEdges bounds the stream length (0 = whole dataset).
	MaxEdges int
}

func (c *DshardConfig) defaults() {
	if c.NumQueries <= 0 {
		c.NumQueries = 6
	}
	if c.Slots <= 0 {
		c.Slots = 2
	}
	if c.Batch <= 0 {
		c.Batch = 512
	}
	if c.Window <= 0 {
		c.Window = 2000
	}
}

// countingConn tallies bytes through a net.Conn (both directions are
// counted by wrapping the accept side only).
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countingListener wraps Accept to meter every connection.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, n: l.n}, nil
}

// DshardThroughput measures multi-query throughput across process
// boundaries: the serial MultiEngine, the in-process shard runtime,
// an all-remote topology (every slot a loopback-TCP dshard worker) and
// a mixed topology (half local, half remote). Every mode runs the same
// queries over the same stream in the same batch sizes; match counts
// are reported so a divergence is visible.
func DshardThroughput(cfg DshardConfig) ([]DshardRow, error) {
	cfg.defaults()
	edges := cfg.Dataset.Edges
	if cfg.MaxEdges > 0 && cfg.MaxEdges < len(edges) {
		edges = edges[:cfg.MaxEdges]
	}
	queries := shardQueries(cfg.Dataset.Types, cfg.NumQueries)
	names := shardQueryNames(queries)
	qcfg := func() core.Config {
		return core.Config{Strategy: core.StrategySingleLazy, MaxMatchesPerSearch: 20000}
	}
	chunks := func(process func([]stream.Edge)) {
		for lo := 0; lo < len(edges); lo += cfg.Batch {
			hi := lo + cfg.Batch
			if hi > len(edges) {
				hi = len(edges)
			}
			process(edges[lo:hi])
		}
	}

	var rows []DshardRow
	finish := func(mode string, local, remote int, matches int64, elapsed time.Duration, wire, raw, sent int64, lag *metrics.Histogram) {
		row := DshardRow{
			Mode: mode, Local: local, Remote: remote,
			Queries: cfg.NumQueries, Edges: len(edges), Matches: matches,
			Elapsed:     elapsed,
			EdgesPerSec: float64(len(edges)) / elapsed.Seconds(),
			WireMB:      float64(wire) / (1 << 20),
			WireMBRaw:   float64(raw) / (1 << 20),
			WireMBSent:  float64(sent) / (1 << 20),
		}
		if lag != nil && lag.Count() > 0 {
			row.MatchLagP50NS = lag.Quantile(0.5)
			row.MatchLagP99NS = lag.Quantile(0.99)
			row.MatchLagMaxNS = lag.Max()
		}
		if len(rows) > 0 {
			row.Speedup = row.EdgesPerSec / rows[0].EdgesPerSec
		} else {
			row.Speedup = 1
		}
		rows = append(rows, row)
	}

	// Serial baseline.
	{
		m := core.NewMulti(core.MultiConfig{Window: cfg.Window})
		for _, name := range names {
			if err := m.Register(name, queries[name], qcfg()); err != nil {
				return nil, fmt.Errorf("register %s: %w", name, err)
			}
		}
		var matches int64
		start := time.Now()
		chunks(func(chunk []stream.Edge) { matches += int64(len(m.ProcessBatch(chunk))) })
		finish("serial", 1, 0, matches, time.Since(start), 0, 0, 0, nil)
	}

	// sumSeries folds the router registry's dshard wire counters, both
	// directions, after a run has drained.
	sumSeries := func(r *shard.Router, names ...string) int64 {
		var total int64
		for _, s := range r.Metrics().Snapshot() {
			for _, n := range names {
				if s.Name == n {
					total += s.Value
				}
			}
		}
		return total
	}

	runSharded := func(mode string, local int, remotes []string, wire *atomic.Int64) error {
		r := shard.New(shard.Config{Shards: local, Remotes: remotes, Window: cfg.Window})
		counted := make(chan int64, 1)
		go func() { counted <- r.Drain(nil) }()
		for _, name := range names {
			if err := r.Register(name, queries[name], qcfg()); err != nil {
				// Drain down the runtime before reporting: the caller
				// must not inherit live shard (or remote-redial)
				// goroutines from a failed run.
				r.Close()
				<-counted
				return fmt.Errorf("register %s: %w", name, err)
			}
		}
		start := time.Now()
		chunks(func(chunk []stream.Edge) { r.IngestBatch(chunk) })
		r.Close()
		elapsed := time.Since(start)
		var wired, raw, sent int64
		if wire != nil {
			wired = wire.Swap(0)
			raw = sumSeries(r, "sg_dshard_raw_bytes_in_total", "sg_dshard_raw_bytes_out_total")
			sent = sumSeries(r, "sg_dshard_bytes_in_total", "sg_dshard_bytes_out_total")
		}
		lag := r.MatchLag()
		finish(mode, local, len(remotes), <-counted, elapsed, wired, raw, sent, &lag)
		return nil
	}

	// In-process shard runtime at the same slot count.
	if err := runSharded("inproc", cfg.Slots, nil, nil); err != nil {
		return nil, err
	}

	// One loopback worker process-equivalent hosts every remote slot
	// (each connection gets its own engine, as separate processes
	// would).
	var wire atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := dshard.NewServer()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(countingListener{Listener: ln, n: &wire})
	}()
	defer func() {
		srv.Close()
		<-serveDone
	}()
	addr := ln.Addr().String()

	allRemote := make([]string, cfg.Slots)
	for i := range allRemote {
		allRemote[i] = addr
	}
	if err := runSharded("remote", 0, allRemote, &wire); err != nil {
		return nil, err
	}
	mixedRemote := allRemote[:(cfg.Slots+1)/2]
	if err := runSharded("mixed", cfg.Slots-len(mixedRemote), mixedRemote, &wire); err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintDshard renders the distributed-runtime comparison as a table.
func PrintDshard(w io.Writer, dataset string, rows []DshardRow) {
	fmt.Fprintf(w, "== Distributed shard runtime: %s (loopback TCP, GOMAXPROCS=%d) ==\n",
		dataset, runtime.GOMAXPROCS(0))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tlocal\tremote\tqueries\tedges/s\tspeedup\tmatches\traw MiB\tsent MiB\tlag p50\tlag p99\telapsed")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.0f\t%.2fx\t%d\t%.2f\t%.2f\t%s\t%s\t%v\n",
			r.Mode, r.Local, r.Remote, r.Queries, r.EdgesPerSec, r.Speedup,
			r.Matches, r.WireMBRaw, r.WireMBSent, lagCell(r.MatchLagP50NS), lagCell(r.MatchLagP99NS),
			r.Elapsed.Round(time.Millisecond))
	}
	tw.Flush()
}
