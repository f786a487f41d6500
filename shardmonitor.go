package streamgraph

import (
	"streamgraph/internal/core"
	"streamgraph/internal/shard"
)

// ShardedMonitor mirrors Monitor on the sharded runtime: registered
// queries are partitioned across shard workers, each owning a private
// windowed graph replica filtered to the edge types its queries can
// match, and edges flow through per-shard bounded queues instead of a
// per-edge fork/join. Ingestion is asynchronous — Process and
// ProcessBatch return as soon as the edge is queued on every
// interested shard — and completed matches arrive on the Matches
// channel.
//
// Choose ShardedMonitor over Monitor when many queries share one
// high-rate stream on a multi-core host and per-edge latency coupling
// between queries matters: a slow query stalls only its own shard.
// Replica memory scales with the queries' edge-type footprints, not
// with the shard count — only wildcard-typed queries force a full
// replica on their shard. Choose Monitor when matches must be
// returned synchronously with the edge that produced them.
//
// The Matches channel MUST be consumed concurrently with ingestion;
// every queue in the pipeline is bounded, so an unread match
// eventually backpressures Process.
type ShardedMonitor struct {
	r    *shard.Router
	out  chan QueryMatch
	done chan struct{}
}

// ShardedMonitorOptions configures a ShardedMonitor.
type ShardedMonitorOptions struct {
	// Window is tW, shared by every registered query (0 = unbounded).
	Window int64
	// Shards is the worker count (<= 0 selects GOMAXPROCS).
	Shards int
	// QueueLen bounds each shard's ingest queue (default 256).
	QueueLen int
	// Ordered delivers matches in deterministic (arrival, registration)
	// order — a serial Monitor's order — at the cost of a per-edge
	// collector rendezvous.
	Ordered bool
}

// ShardStats is a point-in-time snapshot of one shard worker.
type ShardStats struct {
	Shard          int
	Queries        int
	QueueDepth     int
	QueueCap       int
	EdgesRouted    int64
	MatchesEmitted int64

	// ReplicaEdges is the number of edges currently live in the
	// shard's filtered graph replica, ReplicaStored the cumulative
	// count ever admitted into it, and ReplicaTypes the number of edge
	// types the replica is filtered to (-1 = replicating every type).
	ReplicaEdges  int64
	ReplicaStored int64
	ReplicaTypes  int64
}

// NewShardedMonitor starts an empty sharded monitor.
func NewShardedMonitor(opts ShardedMonitorOptions) *ShardedMonitor {
	m := &ShardedMonitor{
		r: shard.New(shard.Config{
			Shards:   opts.Shards,
			QueueLen: opts.QueueLen,
			Window:   opts.Window,
			Ordered:  opts.Ordered,
		}),
		out:  make(chan QueryMatch, 1024),
		done: make(chan struct{}),
	}
	go m.pump()
	return m
}

// pump converts the runtime's portable matches into facade matches; it
// needs no graph access because shards resolve names before emitting.
// A shard.Match is valid for its callback only (its collection block is
// reused afterwards), so each one is cloned: sized once per slice and
// independent of the runtime's blocks.
func (m *ShardedMonitor) pump() {
	defer close(m.done)
	defer close(m.out)
	m.r.Drain(func(sm shard.Match) {
		sm = sm.Clone()
		m.out <- QueryMatch{Query: sm.Query, Match: Match{
			Bindings: sm.Bindings, Edges: sm.Edges,
			FirstTS: sm.FirstTS, LastTS: sm.LastTS,
		}}
	})
}

// Register assigns the query to the coldest shard (least estimated
// load, then fewest queries) under the given strategy. It blocks until that shard has acknowledged the
// registration, so edges processed afterwards are seen by the query.
func (m *ShardedMonitor) Register(name string, q *Query, strategy Strategy) error {
	return m.r.Register(name, q, core.Config{Strategy: strategy})
}

// Unregister removes a query and its partial-match state.
func (m *ShardedMonitor) Unregister(name string) { m.r.Unregister(name) }

// Registered returns the registered query names in registration order.
func (m *ShardedMonitor) Registered() []string { return m.r.Registered() }

// Process queues one edge on every shard and returns its arrival
// sequence number. Matches arrive asynchronously on Matches.
func (m *ShardedMonitor) Process(se Edge) uint64 { return m.r.Ingest(se) }

// ProcessBatch queues a whole batch (each shard runs its amortized
// batch pipeline over it) and returns the first edge's arrival
// sequence number. The slice must not be mutated afterwards.
func (m *ShardedMonitor) ProcessBatch(edges []Edge) uint64 { return m.r.IngestBatch(edges) }

// Matches returns the asynchronous match channel. It is closed by
// Close after all queued edges are fully processed.
func (m *ShardedMonitor) Matches() <-chan QueryMatch { return m.out }

// Stats snapshots every shard's counters.
func (m *ShardedMonitor) Stats() []ShardStats {
	raw := m.r.Stats()
	out := make([]ShardStats, len(raw))
	for i, s := range raw {
		out[i] = ShardStats{
			Shard: s.Shard, Queries: s.Queries,
			QueueDepth: s.QueueDepth, QueueCap: s.QueueCap,
			EdgesRouted: s.EdgesRouted, MatchesEmitted: s.MatchesEmitted,
			ReplicaEdges: s.ReplicaEdges, ReplicaStored: s.ReplicaStored,
			ReplicaTypes: s.ReplicaTypes,
		}
	}
	return out
}

// Close drains the shards and closes the Matches channel; a consumer
// reading until close observes every match. Matches must keep being
// consumed while Close runs.
func (m *ShardedMonitor) Close() {
	m.r.Close()
	<-m.done
}
