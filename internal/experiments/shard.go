package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/metrics"
	"streamgraph/internal/query"
	"streamgraph/internal/shard"
	"streamgraph/internal/stream"
)

// ShardRow is one cell of the multi-query runtime comparison: one
// execution mode (serial MultiEngine, or the sharded runtime at one
// shard count) driving the same queries over the same stream.
type ShardRow struct {
	Mode        string        `json:"mode"` // "serial", "shard"
	Shards      int           `json:"shards"`
	Queries     int           `json:"queries"`
	Edges       int           `json:"edges"`
	Matches     int64         `json:"matches"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	EdgesPerSec float64       `json:"edges_per_sec"`
	// Speedup is EdgesPerSec relative to the serial row.
	Speedup float64 `json:"speedup"`
	// ReplicaEdges is the total number of edges stored across every
	// graph replica in the mode (one shared graph for serial; the sum of
	// the filtered per-shard replicas for shard rows). Divided by Edges it is the replication factor the edge-type
	// partitioning buys down from shards-x.
	ReplicaEdges int64 `json:"replica_edges"`
	// MatchLagP50NS, MatchLagP99NS and MatchLagMaxNS are end-to-end
	// match-lag quantiles (edge arrival at the router → match emission
	// on the collection channel) in nanoseconds, from the runtime's
	// metrics registry. Zero for the non-sharded modes, which have no
	// asynchronous delivery to lag behind.
	MatchLagP50NS int64 `json:"match_lag_p50_ns"`
	MatchLagP99NS int64 `json:"match_lag_p99_ns"`
	MatchLagMaxNS int64 `json:"match_lag_max_ns"`
}

// ShardConfig parameterizes the sharded-runtime throughput experiment.
type ShardConfig struct {
	Dataset Dataset
	// NumQueries standing queries are generated by rotating through the
	// dataset's edge types (default 6).
	NumQueries int
	// Shards lists the shard counts to drive (default 1, 2, GOMAXPROCS
	// when larger).
	Shards []int
	// Batch is the ingest chunk size for every mode (default 512).
	Batch int
	// Window is tW (default 2000).
	Window int64
	// TrainFraction of the stream estimates selectivities (default 0.2).
	TrainFraction float64
	// MaxEdges bounds the stream length (0 = whole dataset).
	MaxEdges int
}

func (c *ShardConfig) defaults() {
	if c.NumQueries <= 0 {
		c.NumQueries = 6
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2}
		if p := runtime.GOMAXPROCS(0); p > 2 {
			c.Shards = append(c.Shards, p)
		}
	}
	if c.Batch <= 0 {
		c.Batch = 512
	}
	if c.Window <= 0 {
		c.Window = 2000
	}
	if c.TrainFraction <= 0 {
		c.TrainFraction = 0.2
	}
}

// shardQueries builds the standing query set: 2-hop wildcard paths
// rotating through the dataset's edge types, so the queries differ in
// selectivity but share the stream.
func shardQueries(types []string, n int) map[string]*query.Graph {
	out := make(map[string]*query.Graph, n)
	for i := 0; i < n; i++ {
		t1 := types[i%len(types)]
		t2 := types[(i+1)%len(types)]
		out[fmt.Sprintf("q%02d-%s-%s", i, t1, t2)] = query.NewPath(query.Wildcard, t1, t2)
	}
	return out
}

func shardQueryNames(qs map[string]*query.Graph) []string {
	names := make([]string, 0, len(qs))
	for name := range qs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ShardThroughput measures multi-query throughput on one dataset
// across two runtimes: the serial MultiEngine and the sharded runtime
// at each configured shard count. Every mode runs the same queries over the same stream
// in the same batch sizes; match counts are reported so a divergence
// is visible (exactness itself is enforced by the differential tests
// in internal/shard).
func ShardThroughput(cfg ShardConfig) []ShardRow {
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

	var rows []ShardRow
	finish := func(mode string, shards int, matches int64, elapsed time.Duration, replicaEdges int64, lag *metrics.Histogram) {
		row := ShardRow{
			Mode: mode, Shards: shards, Queries: cfg.NumQueries,
			Edges: len(edges), Matches: matches, Elapsed: elapsed,
			EdgesPerSec:  float64(len(edges)) / elapsed.Seconds(),
			ReplicaEdges: replicaEdges,
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

	// Serial baseline: one MultiEngine, batch ingest, inline merge.
	{
		m := core.NewMulti(core.MultiConfig{Window: cfg.Window})
		for _, name := range names {
			if err := m.Register(name, queries[name], qcfg()); err != nil {
				continue
			}
		}
		var matches int64
		start := time.Now()
		chunks(func(chunk []stream.Edge) { matches += int64(len(m.ProcessBatch(chunk))) })
		finish("serial", 1, matches, time.Since(start), m.EdgesStored(), nil)
	}

	// Sharded runtime: pipelined ingest, async collection.
	for _, n := range cfg.Shards {
		r := shard.New(shard.Config{Shards: n, Window: cfg.Window})
		for _, name := range names {
			if err := r.Register(name, queries[name], qcfg()); err != nil {
				continue
			}
		}
		counted := make(chan int64, 1)
		go func() { counted <- r.Drain(nil) }()
		start := time.Now()
		chunks(func(chunk []stream.Edge) { r.IngestBatch(chunk) })
		r.Close() // blocks until every queued edge is fully processed
		elapsed := time.Since(start)
		var replicated int64
		for _, s := range r.Stats() {
			replicated += s.ReplicaStored
		}
		lag := r.MatchLag()
		finish("shard", n, <-counted, elapsed, replicated, &lag)
	}
	return rows
}

// lagCell renders a nanosecond match-lag quantile for the tables ("-"
// for modes with no asynchronous delivery).
func lagCell(ns int64) string {
	if ns == 0 {
		return "-"
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}

// PrintShard renders the sharded-runtime comparison as a table.
func PrintShard(w io.Writer, dataset string, rows []ShardRow) {
	fmt.Fprintf(w, "== Sharded runtime throughput: %s (GOMAXPROCS=%d) ==\n", dataset, runtime.GOMAXPROCS(0))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tshards\tqueries\tedges/s\tspeedup\tmatches\treplicated\trepl.x\tlag p50\tlag p99\telapsed")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\t%.2fx\t%d\t%d\t%.2fx\t%s\t%s\t%v\n",
			r.Mode, r.Shards, r.Queries, r.EdgesPerSec, r.Speedup, r.Matches,
			r.ReplicaEdges, float64(r.ReplicaEdges)/float64(r.Edges),
			lagCell(r.MatchLagP50NS), lagCell(r.MatchLagP99NS), r.Elapsed.Round(time.Millisecond))
	}
	tw.Flush()
}
