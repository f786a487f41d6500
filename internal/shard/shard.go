// Package shard implements the query-partitioned sharded runtime: a
// Router spreads registered continuous queries across N shard workers,
// each owning a private windowed graph replica and a single-writer
// core.MultiEngine, fed by per-shard bounded channels and emitting
// completed matches asynchronously on a collection channel.
//
// The runtime is pipelined: the router never waits for a shard to
// finish an edge before accepting the next one, there is no global
// barrier per edge and no serial merge on the hot path — a slow query
// only ever stalls its own shard (and, once that shard's bounded queue
// fills, the producer: backpressure instead of unbounded buffering).
// Queries — not graph partitions — remain the unit of parallelism, which
// keeps exact-match semantics intact: every shard ingests, in arrival
// order, the slice of the stream its queries can match, so each query
// sees exactly the stream a serial core.MultiEngine would have shown
// it (the package tests enforce per-query match-set equality
// differentially).
//
// Replicas are edge-type partitioned. A query's matcher can only ever
// bind data edges whose type appears in the query (its edge-type
// footprint, query.Graph.TypeFootprint), so each shard stores just the
// edges routable to the queries it owns: the router keeps a per-shard
// type gate and never even enqueues an edge on a shard with no
// interest, and the shard's engine filters the remainder
// (core.MultiEngine's replica filter). Queries that cannot be
// statically filtered — wildcard edge types — fall back to full
// replication on their shard. With footprints that partition the type
// alphabet, total replicated storage is ~1x the input instead of
// shards-x; replicas still eliminate cross-shard reads, locks and
// coordination entirely (cf. "Large-scale continuous subgraph queries
// on streams", which partitions work by query structure the same way).
//
// Runtime Register/Unregister keep the replicas exact: the router
// appends every admitted batch to a shared immutable EdgeLog
// (replica.go), and a registration that widens a shard's footprint
// backfills the in-window past of the newly needed types from a
// lock-free log snapshot — ingestion and the other shards never wait.
// An unregistration narrows the footprint and trims the replica.
// Exactness against a serial engine holds for label-consistent
// streams with non-decreasing timestamps (the generators' contract);
// the package's differential tests pin it across shard counts, batch
// splits, and mid-stream register/unregister.
//
// Ordering. By default matches arrive on the collection channel in
// completion order — shards drift apart freely, which is what makes
// the pipeline fast. Config.Ordered enables the deterministic in-seq
// merge: a collector k-way-merges per-shard bundles and delivers
// matches in (arrival seq, query registration) order, byte-identical
// to a serial MultiEngine run. Ordered mode re-introduces a per-edge
// collector-side rendezvous; use it for tests and audits, not for
// throughput.
//
// Collection. Matches travel to the consumer in blocks (block.go): a
// producer draws a block — a []Match and the two slabs its Bindings and
// Edges are cut from, owned as one value — from the router's free list,
// fills it with up to blockSize matches, and Router.deliver accounts,
// records and sends it as a unit; Drain hands it back to the free list
// once the callback has returned for its last match. A Match is
// therefore valid for the duration of its callback and no longer — the
// engine's match-lifetime rule (package core) taken one hop outward —
// and a consumer that keeps one calls Match.Clone. The free list holds
// at most poolDepth blocks; a producer that finds it empty allocates,
// and a block returned to a full list is left to the collector, so a
// stalled consumer costs garbage, never a wait or a growing pool. Drain
// is the one consumer API and MUST run concurrently with ingestion:
// every channel stage of the pipeline is bounded, so unread matches
// eventually stall the shards and then the router (see Config.OutLen for
// the bound).
package shard

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"streamgraph/internal/core"
	"streamgraph/internal/decompose"
	"streamgraph/internal/dshard"
	"streamgraph/internal/edlog"
	"streamgraph/internal/graph"
	"streamgraph/internal/metrics"
	"streamgraph/internal/persist"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

// Config parameterizes a Router.
type Config struct {
	// Shards is the worker count (<= 0 selects GOMAXPROCS).
	Shards int
	// QueueLen bounds each shard's ingest queue, in messages (an edge
	// or a batch each); a full queue blocks the producer (default 256).
	QueueLen int
	// OutLen bounds the matches buffered between the shards and the
	// Drain callback (default 1024). Matches travel in blocks of up to
	// blockSize; a block is sent once it fits the budget (or nothing
	// else is queued), so a stalled consumer stops the runtime with at
	// most max(OutLen, blockSize) matches queued, one more block in
	// each slot's hands and one in its own — whether the blocks are
	// full (batch ingestion) or hold a match or two (per-edge Ingest).
	OutLen int
	// Window is tW, shared by every registered query (0 = unwindowed).
	// Unwindowed filtering mode retains the whole stream in the shared
	// edge log — late registrations are entitled to replay all of it,
	// just as an unwindowed serial engine's graph retains every edge —
	// so total memory is one full copy plus the filtered replicas. Set
	// FullReplicas to drop the log if that trade is wrong for the
	// deployment.
	Window int64
	// Ordered enables the deterministic in-seq merge mode: matches are
	// delivered in (arrival seq, query registration) order, exactly as
	// a serial core.MultiEngine reports them. Ordered mode implies
	// FullReplicas: the merge relies on every shard emitting one bundle
	// per admitted edge, and full processing keeps even the lazy
	// strategies' retrospective repairs on the reference schedule.
	Ordered bool
	// FullReplicas disables edge-type-partitioned replication: every
	// shard receives and stores the whole stream, as in the original
	// runtime. Useful for audits and for measuring what the filtered
	// replicas save.
	FullReplicas bool
	// Remotes lists remote shard worker addresses (host:port, each a
	// cmd/sgshard process speaking the internal/dshard protocol). Every
	// address becomes one shard slot in addition to the Shards local
	// workers; with Remotes set, Shards <= 0 selects zero local workers
	// (an all-remote topology) instead of GOMAXPROCS. Remote slots hold
	// exactly the semantics of local ones — the differential tests pin
	// match sets byte-identical across local, remote and mixed
	// topologies — at the cost of the wire: ingest latency, and a
	// reconnect replay after a connection drop (see internal/dshard and
	// docs/DISTRIBUTED.md).
	Remotes []string
	// RemotePending bounds each remote slot's admitted-but-
	// unacknowledged edge-batch backlog (default 1024). While a remote
	// is disconnected the router keeps admitting up to this many
	// batches (the shared EdgeLog retains them for the reconnect
	// replay); beyond it the slot's queue backpressures ingestion,
	// exactly like a slow local shard.
	RemotePending int
	// Wire selects the dshard wire encoding remote slots negotiate
	// (default WireAuto: dictionary + delta timestamps + compression).
	// Match results are byte-identical under every mode; only wire
	// compactness differs.
	Wire WireMode

	// DataDir, when set (via Open — New ignores it), makes the runtime
	// durable: every admitted batch is appended to a segment-backed
	// edge log on disk (internal/edlog) and every CheckpointEvery edges
	// the router checkpoints each slot's engine plus its own registry,
	// so a crashed process restarts from snapshot + log tail instead of
	// losing the stream. See docs/PERSISTENCE.md. Durable mode requires
	// Ordered to be false (a restart replays matches at least once, in
	// completion order).
	DataDir string
	// CheckpointEvery is the checkpoint cadence in admitted edges
	// (default 4096). It also paces the remote snapshot requests that
	// bound the reconnect-replay pin — those run whenever the topology
	// has remote slots, durable or not.
	CheckpointEvery int
	// SegmentBytes caps one durable log segment file (default
	// edlog.DefaultSegmentBytes). Tests use small segments to force
	// rotation and trimming on small workloads.
	SegmentBytes int64

	// RedialBudget bounds a remote slot's consecutive failed dial
	// attempts. 0 (the default) keeps the legacy behavior: redial
	// forever, pinning the EdgeLog and eventually backpressuring ingest
	// on the dead slot's pending budget. A positive budget makes the
	// slot fail over instead: after that many consecutive dial
	// failures it adopts an in-process hospice engine (restoring the
	// slot's last snapshot and replaying its entitlement, so no match
	// is lost) and the router live-migrates its registrations to the
	// surviving slots, then retires the slot — unpinning the log with
	// no operator action. See Router.Migrate and docs/DISTRIBUTED.md.
	RedialBudget int
}

// Binding is one resolved vertex of a match: query vertex name to data
// vertex name.
type Binding = core.PortableBinding

// MatchEdge is one resolved edge of a match (the engine's portable
// form): the query edge index, resolved endpoint and type names, and
// the edge timestamp.
type MatchEdge = core.PortableMatchEdge

// Match is one completed match, resolved into portable name-based form
// inside the owning shard (so it stays valid after the shard's private
// graph evicts the underlying edges) and delivered to the Drain
// callback. Bindings and Edges are capacity-clipped windows of its
// collection block's slabs, which the router reuses once the block's
// callbacks have returned: a Match is valid until its callback returns,
// and Clone makes the copy that outlives it.
type Match struct {
	// Seq is the router-assigned arrival index (0-based) of the stream
	// edge that completed the match.
	Seq uint64
	// Shard is the worker that produced the match.
	Shard int
	// Query is the registered query name.
	Query string

	Bindings []Binding
	Edges    []MatchEdge
	// FirstTS and LastTS delimit τ(g), the match's timespan.
	FirstTS int64
	LastTS  int64

	rank int // global registration rank; orders the in-seq merge
}

// Clone returns a copy of the match with Bindings and Edges of its own:
// what a Drain callback keeps when it keeps a match.
func (m Match) Clone() Match {
	m.Bindings = append([]Binding(nil), m.Bindings...)
	m.Edges = append([]MatchEdge(nil), m.Edges...)
	return m
}

// String renders the match compactly.
func (m Match) String() string {
	s := m.Query
	for _, b := range m.Bindings {
		s += " " + b.QueryVertex + "=" + b.DataVertex
	}
	return s
}

// BindingString renders only the bindings ("a=x b=y"), the form the
// TCP server's match lines use.
func (m Match) BindingString() string {
	s := ""
	for _, b := range m.Bindings {
		if s != "" {
			s += " "
		}
		s += b.QueryVertex + "=" + b.DataVertex
	}
	return s
}

// Stats is a point-in-time snapshot of one shard worker.
type Stats struct {
	Shard          int
	Queries        int   // queries owned by this shard
	QueueDepth     int   // ingest messages waiting
	QueueCap       int   // ingest queue capacity
	EdgesRouted    int64 // edges delivered to this shard's queue (post-gate)
	MatchesEmitted int64 // matches this shard pushed to collection
	// Load is the slot's estimated cost: the sum, over the queries it
	// owns, of the expected partial-match traffic per stream edge that
	// Register derived from the statistics (see Router.Register). It is
	// what placement and Rebalance order slots by; 0 for queries that
	// registered with nothing to estimate from, until a Rebalance.
	Load float64

	// ReplicaEdges is the number of edges currently live in this
	// shard's filtered graph replica.
	ReplicaEdges int64
	// ReplicaStored is the cumulative number of edges ever admitted
	// into the replica (gated ingest plus backfill); summed across
	// shards it is the total replication cost of the runtime.
	ReplicaStored int64
	// ReplicaTypes is the number of edge types in the shard's
	// footprint, or -1 when the shard replicates every type (a
	// wildcard query, FullReplicas, or ordered mode).
	ReplicaTypes int64
}

type msgKind int

const (
	msgEdges msgKind = iota
	msgRegister
	msgUnregister
	// msgBackfill never rides the queues; it tags a remote slot's
	// in-flight backfill-continuation frames (remote.go).
	msgBackfill
	// msgCheckpoint asks a slot to capture a durable snapshot of its
	// engine: a local worker writes its slot checkpoint file and
	// replies, a remote slot requests a state snapshot over the wire
	// (remote.go) — which is what retires its replay entitlement and
	// lets the EdgeLog pin advance.
	msgCheckpoint
	// msgRestore never rides the queues; it tags a remote slot's
	// in-flight state-restore frame on a reconnect.
	msgRestore
)

// message is one entry of a shard's ingest queue: a broadcast edge
// batch or a control message (register/unregister) targeted at the
// shard that owns the query. Control messages ride the same queue as
// edges so a registration takes effect at a definite stream position
// on its shard.
type message struct {
	kind    msgKind
	edges   []stream.Edge // msgEdges: shared read-only slice
	baseSeq uint64        // msgEdges: arrival seq of edges[0]
	name    string        // control: query name
	q       *query.Graph  // msgRegister
	cfg     core.Config   // msgRegister
	rank    int           // msgRegister: global registration rank
	seq     uint64        // control: stream position (bounds the backfill)
	minTS   int64         // msgRegister: window floor at registration time
	reply   chan error    // control ack (buffered)
	enq     int64         // msgEdges: enqueue instant (telemetry.now), for queue-wait tails

	// The control stamp (Router.admit), computed from the slot's
	// footprint refcounts under ingestMu at the message's admission.
	// Both transports apply it as is — the slots keep no refcounts — and
	// a remote slot's reconnect replay reproduces the control point
	// from it.
	needAll       bool         // msgRegister: backfill everything not in heldTypes
	needTypes     []string     // msgRegister: backfill exactly these types
	heldTypes     []string     // msgRegister: types already replicated (needAll)
	postUniversal bool         // control: replica filter after this point
	postTypes     []string     // control: replica filter after this point
	revent        *remoteEvent // remote slot: the proxy's retained event record

	// Migration fields (migrate.go). A register carrying xfer (local
	// target) or state (remote target) is the second half of a
	// Router.Migrate handoff; an unregister with migrate set is the
	// first half. A local source flushes, clones the query out and
	// replies the clone on xout; a remote source's pending retro work
	// was already captured in the snapshot — the worker must not flush.
	xfer    *core.MultiEngine // msgRegister: clone to transplant (local target)
	state   []byte            // msgRegister: SaveMulti image (remote target)
	migrate bool              // register/unregister: part of a migration
	xout    chan migrateOut   // migrate unregister, local source: handoff reply
}

// migrateOut is a local source's reply to a migrate unregister: the
// detached single-query clone and the query's registration rank.
type migrateOut struct {
	eng  *core.MultiEngine
	rank int
	err  error
}

// bundle is one edge's worth of matches from one shard (ordered mode
// only); every shard emits exactly one bundle per ingested edge, in
// seq order, which is what makes the k-way merge trivial.
type bundle struct {
	seq   uint64
	block *block // nil when the edge completed nothing on the shard
}

// Router is the front of the sharded runtime: it assigns queries to
// shards, broadcasts ingested edges to every shard's bounded queue and
// owns the collection channel.
//
// Ingest, IngestBatch, Register and Unregister are safe for concurrent
// use; edges are sequenced in the order the router admits them.
type Router struct {
	cfg       Config
	filtering bool // edge-type-partitioned replicas in effect
	hasRemote bool // at least one remote slot in the topology
	workers   []*worker
	out       chan *block // collection blocks, see deliver
	free      chan *block // recycled blocks, see getBlock
	log       *EdgeLog    // shared immutable edge log: the window, as the router holds it

	// ingestMu orders everything that enters the shard queues — edge
	// broadcasts, control messages, and the queue close — and is the
	// only lock held across a (potentially blocking, backpressured)
	// queue send. The per-shard gates and the gate interner are also
	// guarded by it: gate changes are serialized against edge admission
	// so a registration's backfill bound is gap-free. Lock order:
	// ingestMu before mu.
	ingestMu  sync.Mutex
	closed    bool              // guarded by ingestMu
	seq       atomic.Uint64     // written under ingestMu, read lock-free
	gateTypes *graph.Interner   // router-side type ids (ingestMu)
	gateIDs   []graph.TypeID    // per-batch scratch (ingestMu)
	fps       map[string]fprint // query name -> footprint (ingestMu)

	// floors holds the window floor of every in-flight registration
	// (ingestMu): the log must not trim past the oldest one, or a
	// concurrent ingest could drop segments the registration's backfill
	// is entitled to replay. Keyed by a per-registration token.
	floors     map[uint64]int64
	floorToken uint64

	// Durable state (all guarded by ingestMu except the counters).
	dlog       *edlog.Log         // nil unless opened with a DataDir
	dregs      map[string]metaReg // durable registry: what router.meta records
	sinceCkpt  int                // edges admitted since the last checkpoint round
	ckptSeq    uint64             // stream position of the last completed round
	persistErr error              // first durable-write failure; checkpoints stop

	// emitted counts matches handed to the collection channel (or
	// accounted for delivery under a remote slot's lock); consumed
	// counts matches a Drain callback has fully processed. The durable
	// checkpoint barrier waits for consumed to catch emitted before
	// committing a round's metadata, so a checkpoint never covers a
	// match the consumer has not durably seen (shard.go:checkpointRound).
	emitted  atomic.Int64
	consumed atomic.Int64

	// The collection budget (Config.OutLen): queued counts the matches
	// of blocks sent on out and not yet received; deliver waits on
	// outSpace while its block does not fit, release signals it. The
	// channel itself never fills — it has room for OutLen blocks and a
	// block holds at least one match.
	outMu    sync.Mutex
	outSpace sync.Cond // L is &outMu
	queued   int

	// mu guards the registry metadata only and is never held across a
	// queue send, so Stats/Registered stay responsive while a
	// backpressured ingest is blocked.
	mu    sync.Mutex
	order []string // registration order (rank order)
	owner map[string]*worker
	owned map[*worker]int
	cost  map[string]*queryCost // query name -> estimated cost (estimateCost)
	rank  int

	wg        sync.WaitGroup // worker goroutines
	mergeDone chan struct{}  // non-nil in ordered mode

	// tel is the router's observability state (telemetry.go): the
	// metrics registry every per-shard/per-query series lives in and
	// the seq→arrival ring behind the match-lag histograms. Always
	// non-nil.
	tel *telemetry
}

// fprint is a registered query's edge-type footprint, retained so
// Unregister can release its gate refcounts.
type fprint struct {
	types []string
	exact bool
}

// worker is one shard slot. A local slot is a goroutine draining its
// bounded queue into a privately owned slot engine (dshard.Slot: a
// MultiEngine over a filtered graph replica, the ranks, the retro flush
// barrier); a remote slot drains the same queue over a TCP connection
// to a remote shard worker hosting that same slot engine (remote.go),
// leaving slot nil. Either way, the router-side state — the ingest
// gate, the footprint refcounts, the queue, the counters and gauges —
// lives here, and the slot engine only applies what Router.admit
// stamped on each control message.
type worker struct {
	id      int
	r       *Router
	in      chan message
	bundles chan bundle // ordered mode only
	slot    *dshard.Slot

	// remote, when non-nil, makes this slot a proxy to a remote shard
	// worker; slot is then unused.
	remote *remoteSlot

	// retired marks a slot removed from the topology (RemoveSlot, or a
	// failover evacuation): its queue is closed, it receives no further
	// edges or control messages, and its remote pins are cleared so it
	// can never hold back the EdgeLog. Guarded by ingestMu; slot ids
	// are stable, so a retired slot stays in r.workers as a tombstone.
	retired bool

	// gate is the router-side ingest filter: the edge types this shard
	// has any interest in. Read and written under r.ingestMu only; the
	// TypeSet value itself is immutable (copy-on-write), so swapping it
	// never disturbs a concurrent reader of the old set.
	gate     graph.TypeSet
	gateRefs *replicaSet // router-side footprint refcounts (ingestMu)

	// pend is the worker goroutine's scratch list of one batch's engine
	// matches awaiting resolution into blocks.
	pend []pendingMatch

	// Registry-backed slot series (handles created by
	// telemetry.registerWorker; recording is atomic and lock-free).
	edgesRouted     *metrics.Counter
	edgesGated      *metrics.Counter
	edgesBackfilled *metrics.Counter
	matchesEmitted  *metrics.Counter
	queueWait       *metrics.AtomicHistogram
	batchTime       *metrics.AtomicHistogram

	// The slot's gauges (dshard.Report), set only by publish: the slot
	// engine is single-writer state no scrape may touch directly.
	replicaLive, replicaStored, replicaTypes            *metrics.Gauge
	engEdges, engPartial                                *metrics.Gauge
	replicaVertices, replicaVertexSlots                 *metrics.Gauge
	treeInserted, treeDeduped, treeEmitted, treeEvicted *metrics.Gauge
	poolGets, poolFresh                                 *metrics.Gauge
}

// New starts a router and its shard workers (local goroutines for the
// first Config.Shards slots, remote proxies for Config.Remotes). The
// runtime is volatile: Config.DataDir is ignored — use Open for the
// durable, crash-recoverable runtime.
func New(cfg Config) *Router {
	r := newRouter(cfg)
	r.start()
	return r
}

// newRouter builds the router and its slots without starting any
// goroutine, so Open can restore durable state into the workers'
// engines first.
func newRouter(cfg Config) *Router {
	if cfg.Shards <= 0 {
		if len(cfg.Remotes) > 0 {
			cfg.Shards = 0 // all-remote topology
		} else {
			cfg.Shards = runtime.GOMAXPROCS(0)
		}
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	if cfg.OutLen <= 0 {
		cfg.OutLen = 1024
	}
	if cfg.RemotePending <= 0 {
		cfg.RemotePending = 1024
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 4096
	}
	r := &Router{
		cfg:       cfg,
		filtering: !cfg.Ordered && !cfg.FullReplicas,
		hasRemote: len(cfg.Remotes) > 0,
		out:       make(chan *block, cfg.OutLen),
		free:      make(chan *block, poolDepth),
		// What a registration decomposes from, a late one backfills a
		// filtered replica from and a remote slot replays on reconnect.
		log:    NewEdgeLog(),
		floors: make(map[uint64]int64),
		owner:  make(map[string]*worker),
		owned:  make(map[*worker]int),
		cost:   make(map[string]*queryCost),
		tel:    newTelemetry(),
	}
	r.outSpace.L = &r.outMu
	r.tel.registerRouter(r)
	if r.filtering {
		r.gateTypes = graph.NewInterner()
		r.fps = make(map[string]fprint)
	}
	for i := 0; i < cfg.Shards; i++ {
		r.workers = append(r.workers, r.newWorker(i, ""))
	}
	for _, addr := range cfg.Remotes {
		r.workers = append(r.workers, r.newWorker(len(r.workers), addr))
	}
	return r
}

// newWorker builds slot id: a local worker over a fresh slot engine, or
// with addr a proxy to the remote shard worker there, and its
// router-side state. A filtered slot starts with no queries, hence an
// empty footprint: it receives and stores nothing until one is
// registered.
func (r *Router) newWorker(id int, addr string) *worker {
	w := &worker{id: id, r: r, in: make(chan message, r.cfg.QueueLen)}
	if addr == "" {
		w.slot = dshard.NewSlot(core.NewMulti(core.MultiConfig{Window: r.cfg.Window}), !r.filtering)
	} else {
		w.remote = newRemoteSlot(w, addr, r.cfg.RemotePending)
		w.remote.registerMetrics(r.tel)
	}
	r.tel.registerWorker(w)
	if r.filtering {
		w.gate = graph.NewTypeSet()
		w.gateRefs = newReplicaSet()
	} else {
		w.gate = graph.UniversalTypes()
		w.replicaTypes.Set(-1)
	}
	if r.cfg.Ordered {
		w.bundles = make(chan bundle, r.cfg.QueueLen)
	}
	return w
}

// start launches the worker goroutines (and the ordered merge).
func (r *Router) start() {
	for _, w := range r.workers {
		r.wg.Add(1)
		if w.remote != nil {
			go w.remote.run()
		} else {
			go w.run()
		}
	}
	if r.cfg.Ordered {
		r.mergeDone = make(chan struct{})
		go r.mergeOrdered()
	}
}

// NumShards returns the worker count, including retired tombstone
// slots (slot ids are stable for the life of the router).
func (r *Router) NumShards() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.workers)
}

// Register assigns the query to the coldest shard (slotOrder: least
// estimated load, then fewest queries, then lowest slot id) and
// registers it there, at the current stream position. It blocks until
// the owning shard has drained its queue up to the registration (so a
// subsequent Ingest is guaranteed to be seen by the query) and returns
// the registration error, if any.
//
// Everything a slot engine would refuse is refused here, before any
// gate or slot is touched: an invalid query, a decomposition sjtree
// cannot build, a duplicate name, a query that cannot cross the wire in
// a remote topology. That keeps the control stamps exact: a
// registration admitted after this one relies on its footprint being
// held, so this one must not fail on the slot.
//
// In filtering mode the query's edge-type footprint widens the owning
// shard's ingest gate at the same stream position, and the shard
// backfills the in-window past of any newly needed types from the
// shared edge log before acknowledging — so the query observes exactly
// the graph it would have on a full replica.
//
// The decomposition is pinned here in every mode: from cfg.Leaves or
// cfg.Stats when the caller gives either, otherwise from the statistics
// of the window at this stream position, computed now from the edge log
// (EdgeLog.Statistics) — the leaves a serial MultiEngine registering at
// the same position picks from its graph; no collector is fed per edge,
// here or on a worker. The same statistics and the pinned leaves give
// the query's estimated cost (estimateCost), 0 for a registration that
// brought leaves and no statistics; Rebalance re-estimates every query.
func (r *Router) Register(name string, q *query.Graph, cfg core.Config) error {
	if cfg.Adaptive != nil {
		// A slot's engine is a core.MultiEngine, which never
		// re-decomposes a query; the wire carries no adaptive field either.
		return fmt.Errorf("shard: query %q: adaptive queries (Config.Adaptive) run standalone only", name)
	}
	if err := q.Validate(); err != nil {
		return fmt.Errorf("shard: query %q: %w", name, err)
	}
	var fp fprint
	fp.types, fp.exact = q.TypeFootprint()
	r.ingestMu.Lock()
	if r.closed {
		r.ingestMu.Unlock()
		return fmt.Errorf("shard: router is closed")
	}
	if r.hasRemote {
		// A remote-destined query crosses the wire as its textual form
		// and is reparsed by the worker; names, labels and types
		// containing whitespace would tokenize differently there than a
		// local engine binds them. Reject them up front — the slot is
		// chosen by load, so any registration in a remote topology must
		// be wire-safe — using the parser's own print/parse fixed point
		// as the test.
		if err := wireSafe(q); err != nil {
			r.ingestMu.Unlock()
			return fmt.Errorf("shard: query %q %w", name, err)
		}
	}
	stats := cfg.Stats
	if cfg.Strategy.Decomposes() {
		var err error
		if cfg.Leaves == nil {
			// Pin the decomposition here, against the whole stream's
			// window (or the caller's statistics — the collector a serial
			// engine would have decomposed from), before the query reaches
			// its shard: a filtered shard holds only its slice of the
			// window, a remote shard cannot be shipped statistics at all,
			// and a lazy query's reachable-match set depends on its
			// decomposition, so divergent statistics would diverge from
			// the serial schedule.
			if stats == nil {
				stats = r.log.Statistics(r.cfg.Window)
			}
			cfg.Leaves, _, _, err = core.Decompose(q, cfg.Strategy, stats)
		}
		if err == nil {
			// The SJ-Tree the shard joins on is this decomposition; its
			// footprint is what the gate and replica filter must admit.
			// Footprint refuses every leaf set sjtree.Build refuses, and
			// the footprint of one it accepts is the query's own.
			fp.types, fp.exact, err = decompose.Footprint(q, cfg.Leaves)
		}
		if err != nil {
			r.ingestMu.Unlock()
			return err
		}
	}
	r.mu.Lock()
	if _, dup := r.owner[name]; dup {
		r.mu.Unlock()
		r.ingestMu.Unlock()
		return fmt.Errorf("shard: query %q already registered", name)
	}
	slots, _ := r.slotOrder()
	if len(slots) == 0 {
		r.mu.Unlock()
		r.ingestMu.Unlock()
		return fmt.Errorf("shard: no live shard slot (all retired)")
	}
	w := slots[0]
	rank := r.rank
	r.rank++
	// Optimistic: recorded before the shard acks, rolled back on error.
	r.own(name, w, &queryCost{q: q, leaves: cfg.Leaves, cost: estimateCost(stats, q, cfg.Leaves)})
	r.mu.Unlock()
	// Capture the window floor NOW, at the registration's stream
	// position — the backfill is entitled to every logged edge at or
	// above it, however far the stream advances before the owning shard
	// executes the backfill — and pin the log against trimming past it
	// until the shard has acknowledged. (A remote slot then keeps its own
	// pin at this floor for the life of the registration: a reconnect
	// replay re-backfills from it.)
	minTS := int64(math.MinInt64)
	if r.cfg.Window > 0 {
		minTS = r.log.MaxTS() - r.cfg.Window + 1
	}
	r.floorToken++
	floorToken := r.floorToken
	r.floors[floorToken] = minTS
	msg := message{
		kind: msgRegister, name: name, q: q, cfg: cfg, rank: rank,
		seq: r.seq.Load(), minTS: minTS, reply: make(chan error, 1),
	}
	// The gate widens before ingestMu is released: every edge admitted
	// after the registration message is already gated by the new
	// footprint, and everything before it is in the log — no gap.
	r.admit(w, &msg, fp)
	r.send(w, msg)
	r.ingestMu.Unlock()

	err := <-msg.reply
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	delete(r.floors, floorToken)
	if err != nil {
		// A concurrent Unregister may have already removed the
		// provisional entry, and admitted its footprint out; only roll
		// back what is still ours.
		r.mu.Lock()
		ours := r.owner[name] == w
		if ours {
			r.disown(name)
		}
		r.mu.Unlock()
		if ours {
			r.undo(w, &msg, fp)
		}
		return err
	}
	if r.dlog != nil {
		// A registration is durable once Register returns: record it in
		// the durable registry and commit a checkpoint round now, so a
		// crash after this point can never resurrect the router without
		// the query (the recovery path relies on it — see Open).
		r.dregs[name] = metaReg{
			name: name, slot: w.id, rank: rank,
			fpTypes: fp.types, fpExact: fp.exact,
			query: q.String(), cfg: cfg,
		}
		if !r.closed {
			r.checkpointRound()
		}
	}
	return nil
}

// admit enters one control point — a registration, a removal, either
// half of a migration, a registration Open restores — into slot w's
// router-side state: it moves footprint fp into (msgRegister) or out of
// (msgUnregister) the slot's refcounts, rebuilds the gate, and stamps
// msg with what the slot applies as is, on either transport: the
// replica filter after the point and, for a registration, the types
// whose in-window past it backfills ("newly needed" relative to the
// footprint before it). Caller holds ingestMu.
func (r *Router) admit(w *worker, msg *message, fp fprint) {
	msg.postUniversal, msg.postTypes = true, nil
	if !r.filtering {
		return
	}
	if msg.kind == msgRegister {
		r.fps[msg.name] = fp
		msg.needAll, msg.heldTypes, msg.needTypes = w.gateRefs.newlyNeeded(fp.types, fp.exact)
		w.gateRefs.add(fp.types, fp.exact)
	} else {
		delete(r.fps, msg.name)
		w.gateRefs.remove(fp.types, fp.exact)
	}
	r.rebuildGate(w)
	if !w.gateRefs.universal() {
		msg.postUniversal, msg.postTypes = false, w.gateRefs.typeNames()
	}
}

// undo reverses admit(w, msg, fp) for a control point the slot refused
// or never received. Caller holds ingestMu.
func (r *Router) undo(w *worker, msg *message, fp fprint) {
	inverse := message{kind: msgUnregister, name: msg.name}
	if msg.kind == msgUnregister {
		inverse.kind = msgRegister
	}
	r.admit(w, &inverse, fp)
}

// send enqueues an admitted control message on its slot, recording it
// first in a remote slot's replay set so a concurrent rebuild can never
// miss it. Caller holds ingestMu.
func (r *Router) send(w *worker, msg message) {
	if w.remote != nil {
		w.remote.noteControl(&msg)
	}
	w.in <- msg
}

// estimateCost is one query's expected partial-match traffic per
// stream edge under its pinned decomposition: the leaf frequencies plus
// the join-output bound of every internal SJ-Tree node
// (Collector.SpaceEstimate), per observed edge. It separates a query
// over frequent edge types from one over rare types, which
// Collector.CostEstimate — a per-edge search charge for every leaf —
// does not. 0 when there is nothing to estimate from: no statistics or
// empty ones, or a strategy without leaves (VF2, IncIso). A wildcard
// edge type counts as every edge (Collector.LeafFrequency).
func estimateCost(stats *selectivity.Collector, q *query.Graph, leaves [][]int) float64 {
	if stats == nil || stats.EdgeTotal() == 0 {
		return 0
	}
	space, err := stats.SpaceEstimate(q, leaves)
	if err != nil {
		return 0
	}
	return space / float64(stats.EdgeTotal())
}

// queryCost is a registration's estimated cost with what re-estimates
// it: the query and its pinned leaves (nil for a baseline strategy).
type queryCost struct {
	q      *query.Graph
	leaves [][]int
	cost   float64
}

// own records a registration on slot w; disown erases it. Caller holds
// r.mu.
func (r *Router) own(name string, w *worker, qc *queryCost) {
	r.owner[name] = w
	r.owned[w]++
	r.cost[name] = qc
	r.order = append(r.order, name)
}

// refreshCosts re-estimates every registered query from the window's
// statistics; an empty window has nothing to estimate from and leaves
// the costs as they are. Caller holds ingestMu.
func (r *Router) refreshCosts() {
	stats := r.log.Statistics(r.cfg.Window)
	if stats.EdgeTotal() == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, qc := range r.cost {
		qc.cost = estimateCost(stats, qc.q, qc.leaves)
	}
}

func (r *Router) disown(name string) {
	r.owned[r.owner[name]]--
	delete(r.owner, name)
	delete(r.cost, name)
	for i, n := range r.order {
		if n == name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// slotLoads sums every slot's estimated query costs, as if query moved
// (when non-empty) were owned by slot to. Costs are added in
// registration order, so a slot's load is a function of the set of
// queries it owns and a hypothetical load equals the one the same
// ownership would really have, bit for bit. Caller holds r.mu.
func (r *Router) slotLoads(moved string, to *worker) map[*worker]float64 {
	loads := make(map[*worker]float64, len(r.workers))
	for _, name := range r.order {
		w := r.owner[name]
		if name == moved {
			w = to
		}
		loads[w] += r.cost[name].cost
	}
	return loads
}

// slotOrder is the one placement order: the live slots, coldest first,
// by (estimated load, owned queries, slot id), with the loads it
// ordered by. Register places on the first slot, an evacuation
// (pickTarget) on the first that is not the slot being emptied, and
// Rebalance moves queries from the later slots to the first. With
// nothing estimated every load is 0 and the order is the fewest-queries
// rule. Caller holds r.mu.
func (r *Router) slotOrder() ([]*worker, map[*worker]float64) {
	loads := r.slotLoads("", nil)
	var slots []*worker
	for _, w := range r.workers {
		if !w.retired {
			slots = append(slots, w)
		}
	}
	sort.Slice(slots, func(i, j int) bool {
		a, b := slots[i], slots[j]
		if loads[a] != loads[b] {
			return loads[a] < loads[b]
		}
		if r.owned[a] != r.owned[b] {
			return r.owned[a] < r.owned[b]
		}
		return a.id < b.id
	})
	return slots, loads
}

// rebuildGate recomputes a shard's ingest gate from its footprint
// refcounts (admit). Caller holds ingestMu.
func (r *Router) rebuildGate(w *worker) {
	if w.gateRefs.universal() {
		w.gate = graph.UniversalTypes()
		return
	}
	names := w.gateRefs.typeNames()
	ids := make([]graph.TypeID, len(names))
	for i, tp := range names {
		ids[i] = graph.TypeID(r.gateTypes.Intern(tp))
	}
	w.gate = graph.NewTypeSet(ids...)
}

// Unregister removes a query and its partial-match state, blocking
// until the owning shard has processed the removal. In filtering mode
// the owning shard's gate narrows at the same stream position and the
// shard trims replica edges no remaining query can reach.
func (r *Router) Unregister(name string) {
	r.ingestMu.Lock()
	if r.closed {
		r.ingestMu.Unlock()
		return
	}
	r.mu.Lock()
	w, ok := r.owner[name]
	if !ok {
		r.mu.Unlock()
		r.ingestMu.Unlock()
		return
	}
	r.disown(name)
	r.mu.Unlock()
	msg := message{kind: msgUnregister, name: name, seq: r.seq.Load(), reply: make(chan error, 1)}
	r.admit(w, &msg, r.fps[name])
	r.send(w, msg)
	r.ingestMu.Unlock()
	<-msg.reply
	if r.dlog != nil {
		// Mirror Register: the removal is durable once Unregister
		// returns, or a restart would resurrect the query.
		r.ingestMu.Lock()
		delete(r.dregs, name)
		if !r.closed {
			r.checkpointRound()
		}
		r.ingestMu.Unlock()
	}
}

// Registered returns the registered query names in registration order.
func (r *Router) Registered() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// Ingest broadcasts one edge to every shard and returns its arrival
// sequence number. It blocks only when a shard's bounded queue is full
// (backpressure), never on the searches themselves.
func (r *Router) Ingest(se stream.Edge) uint64 {
	return r.IngestBatch([]stream.Edge{se})
}

// IngestBatch routes a batch to every interested shard as one queue
// message (each shard runs its engine's amortized batch pipeline over
// it) and returns the arrival sequence number of the first edge. In
// filtering mode a shard whose gate intersects none of the batch's
// edge types never receives the message at all; the batch is also
// appended to the shared edge log so later registrations can backfill
// it. The slice must not be mutated afterwards — every interested
// shard and the log read it.
func (r *Router) IngestBatch(ses []stream.Edge) uint64 {
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	if r.closed || len(ses) == 0 {
		return r.seq.Load()
	}
	base := r.seq.Load()
	r.seq.Store(base + uint64(len(ses)))
	r.tel.noteArrivals(base, len(ses))
	if r.dlog != nil && r.persistErr == nil {
		// Append to the durable log before any worker can observe the
		// batch, so a checkpoint acknowledging it always finds it on
		// disk. A write failure (disk full, permission flip) stops all
		// further durable progress — appends and checkpoint rounds both
		// — rather than let a later checkpoint cover unlogged edges;
		// the stream keeps flowing in-memory and PersistErr reports it.
		if err := r.dlog.Append(ses, base); err != nil {
			r.persistErr = err
		}
	}
	r.log.Append(ses, base)
	if r.cfg.Window > 0 {
		// Trim to the window, but never past the floor of an
		// in-flight registration whose backfill has yet to read its
		// log snapshot on the owning shard, nor past what a remote
		// slot is entitled to replay after a reconnect (its
		// uncovered registrations' floors and its unacknowledged
		// batches), nor — by seq — past the oldest remote engine
		// snapshot, whose reconnect tail replay must be gap-free.
		cutoff := r.log.MaxTS() - r.cfg.Window + 1
		keep := ^uint64(0)
		for _, floor := range r.floors {
			if floor < cutoff {
				cutoff = floor
			}
		}
		for _, w := range r.workers {
			if w.remote == nil || w.retired {
				continue
			}
			if floor := w.remote.pinFloor(); floor < cutoff {
				cutoff = floor
			}
			if s := w.remote.coveredSeq(); s < keep {
				keep = s
			}
		}
		r.log.TrimBefore(cutoff, keep)
	}
	if r.filtering {
		// Intern each edge type once per batch; the per-shard gate scan
		// below is then pure bitset probes.
		r.gateIDs = r.gateIDs[:0]
		for _, se := range ses {
			r.gateIDs = append(r.gateIDs, graph.TypeID(r.gateTypes.Intern(se.Type)))
		}
	}
	batchMinTS := int64(math.MaxInt64)
	if r.hasRemote {
		for _, se := range ses {
			if se.TS < batchMinTS {
				batchMinTS = se.TS
			}
		}
	}
	msg := message{kind: msgEdges, edges: ses, baseSeq: base, enq: r.tel.now()}
	for _, w := range r.workers {
		if w.retired {
			continue
		}
		if r.filtering && !r.gateAdmits(w) {
			w.edgesGated.Add(int64(len(ses)))
			continue
		}
		w.edgesRouted.Add(int64(len(ses)))
		if w.remote != nil {
			w.remote.noteEnqueuedEdges(base, base+uint64(len(ses)), batchMinTS)
		}
		w.in <- msg
	}
	if r.dlog != nil || (r.hasRemote && !r.cfg.Ordered) {
		// Checkpoint cadence: durable rounds when a data dir is open,
		// and remote snapshot requests (the pin-advance mechanism)
		// whenever the topology has remote slots — those are worthwhile
		// even in a volatile runtime, since the reconnect entitlement
		// would otherwise pin the in-memory log forever.
		if r.sinceCkpt += len(ses); r.sinceCkpt >= r.cfg.CheckpointEvery {
			r.sinceCkpt = 0
			r.checkpointRound()
		}
	}
	return base
}

// gateAdmits reports whether any edge of the current batch (interned
// in gateIDs) passes the shard's gate. Caller holds ingestMu.
func (r *Router) gateAdmits(w *worker) bool {
	if w.gate.Universal() {
		return true
	}
	for _, id := range r.gateIDs {
		if w.gate.Has(id) {
			return true
		}
	}
	return false
}

// EdgesRouted returns the number of edges admitted so far. Lock-free,
// so it stays readable while a backpressured ingest is blocked.
func (r *Router) EdgesRouted() uint64 { return r.seq.Load() }

// Stats snapshots every shard's counters.
func (r *Router) Stats() []Stats {
	r.mu.Lock()
	owned := make(map[*worker]int, len(r.owned))
	for w, n := range r.owned {
		owned[w] = n
	}
	loads := r.slotLoads("", nil)
	// Snapshot the slice header too: AddSlot may append concurrently
	// (it holds both locks; slot ids are stable).
	workers := r.workers
	r.mu.Unlock()
	out := make([]Stats, len(workers))
	for i, w := range workers {
		out[i] = Stats{
			Shard:          i,
			Queries:        owned[w],
			QueueDepth:     len(w.in),
			QueueCap:       cap(w.in),
			EdgesRouted:    w.edgesRouted.Load(),
			MatchesEmitted: w.matchesEmitted.Load(),
			Load:           loads[w],
			ReplicaEdges:   w.replicaLive.Load(),
			ReplicaStored:  w.replicaStored.Load(),
			ReplicaTypes:   w.replicaTypes.Load(),
		}
	}
	return out
}

// Close drains and shuts the runtime down: no further ingests are
// admitted, every shard finishes its queued work and emits its
// remaining matches, then the collection channel is closed. A Drain
// running until it returns therefore observes every match — none are
// lost to shutdown (pinned by the package's -race drain test). Drain
// must keep consuming while Close runs.
func (r *Router) Close() {
	r.ingestMu.Lock()
	if r.closed {
		r.ingestMu.Unlock()
		return
	}
	if r.dlog != nil {
		// Final durable point before the queues close. The close-time
		// retro flush below happens after it — harmless: the checkpoint
		// carries the pending repairs, and a restarted router's own
		// Close re-flushes them (at-least-once, like every delivery
		// across a restart).
		r.checkpointRound()
	}
	r.closed = true
	for _, w := range r.workers {
		if w.retired {
			continue // its queue was closed when it was retired
		}
		close(w.in)
	}
	r.ingestMu.Unlock()
	r.wg.Wait()
	if r.mergeDone != nil {
		<-r.mergeDone
	}
	close(r.out)
	if r.dlog != nil {
		r.dlog.Close()
	}
}

// Drain consumes the collection channel until it closes, invoking fn
// (may be nil) per match, and returns the match count. A Match and the
// slices in it are valid until fn returns for it — the block they live
// in is reused for later matches once fn has returned for the block's
// last one — so fn keeps a match by keeping m.Clone(). Run it on its own
// goroutine alongside ingestion:
//
//	done := make(chan int64, 1)
//	go func() { done <- r.Drain(fn) }()
//	... Ingest / IngestBatch ...
//	r.Close()
//	total := <-done
func (r *Router) Drain(fn func(Match)) int64 {
	var n int64
	for b := range r.out {
		r.release(len(b.matches))
		n += int64(len(b.matches))
		if fn != nil {
			for _, m := range b.matches {
				fn(m)
			}
		}
		r.consume(b)
	}
	return n
}

// consume ends a received block's life: its matches count as consumed
// and the block goes back to the free list. Consumed only after the
// callback returned for the block's last match: the durable checkpoint
// barrier keys off this counter, so "covered by a checkpoint" implies
// "the consumer's callback completed" — e.g. its write reached the OS —
// before the round's metadata committed.
func (r *Router) consume(b *block) {
	r.consumed.Add(int64(len(b.matches)))
	r.putBlock(b)
}

// release returns a received block's n matches to the collection
// budget.
func (r *Router) release(n int) {
	r.outMu.Lock()
	r.queued -= n
	r.outMu.Unlock()
	r.outSpace.Broadcast()
}

// deliver hands one block to the consumer: count it as emitted, wait
// for room in the collection budget, record it, send it. Every
// producer — local workers, remote slots' frame delivery (the failover
// hospice included) and the ordered merge — goes through here. The
// count comes first: the durable checkpoint barrier reads emitted and
// waits for consumed to reach it, so a match must be counted before
// anything that lets a round cover its edge. The send comes last: the
// block is the consumer's from then on, and may be refilled by another
// producer before this call returns. A block that finds nothing queued
// goes at once whatever its size, so a budget below one block cannot
// wedge the runtime.
func (r *Router) deliver(b *block) {
	n := len(b.matches)
	r.emitted.Add(int64(n))
	r.outMu.Lock()
	for r.queued > 0 && r.queued+n > r.cfg.OutLen {
		r.outSpace.Wait()
	}
	r.queued += n
	r.outMu.Unlock()
	r.tel.recordMatches(b.matches)
	r.out <- b
}

// mergeOrdered is the deterministic collector: every shard emits
// exactly one bundle per ingested edge in seq order, so reading one
// bundle from each shard per round yields all matches of one edge;
// sorting those by registration rank reproduces the serial
// MultiEngine's output order exactly.
func (r *Router) mergeOrdered() {
	defer close(r.mergeDone)
	var batch []Match
	var bundled []*block
	for {
		batch, bundled = batch[:0], bundled[:0]
		open := false
		for _, w := range r.workers {
			b, ok := <-w.bundles
			if !ok {
				continue
			}
			open = true
			if b.block != nil {
				batch = append(batch, b.block.matches...)
				bundled = append(bundled, b.block)
			}
		}
		if !open {
			return
		}
		sort.SliceStable(batch, func(i, j int) bool { return batch[i].rank < batch[j].rank })
		for lo := 0; lo < len(batch); lo += blockSize {
			r.deliver(r.blockOf(batch[lo:min(lo+blockSize, len(batch))]))
		}
		for _, b := range bundled {
			r.putBlock(b)
		}
	}
}

func (w *worker) run() {
	defer w.r.wg.Done()
	for msg := range w.in {
		switch msg.kind {
		case msgEdges:
			if msg.enq != 0 {
				w.queueWait.Record(w.r.tel.now() - msg.enq)
			}
			w.processEdges(msg)
		case msgRegister:
			w.slot.Flush(msg.seq, w.emit)
			err := w.register(msg)
			w.publish(w.slot.Report())
			msg.reply <- err
		case msgUnregister:
			if msg.xout != nil {
				out := w.handOver(msg)
				w.publish(w.slot.Report())
				msg.xout <- out
				continue
			}
			w.slot.Unregister(msg.seq, msg.name, false, msg.postUniversal, msg.postTypes, w.emit)
			w.publish(w.slot.Report())
			msg.reply <- nil
		case msgCheckpoint:
			// Serialize the engine at this queue position — a message
			// boundary, so no batch is mid-flight — and persist it as
			// the slot's checkpoint. Deliberately not a flush point:
			// snapshotting must not mutate engine state, or the restored
			// run would diverge from the serial schedule.
			msg.reply <- w.writeCheckpoint(msg.seq)
		}
	}
	// The stream is over; drain any repairs the serial schedule would
	// have drained at an edge this shard never received, as a remote
	// slot's close frame does, and publish what that leaves.
	w.slot.Flush(w.r.seq.Load(), w.emit)
	w.publish(w.slot.Report())
	if w.bundles != nil {
		close(w.bundles)
	}
}

// emit delivers what a flush barrier of the slot engine completed (a
// dshard.Emit).
func (w *worker) emit(seq uint64, nms []core.NamedMatch) {
	w.pend = w.pend[:0]
	for _, nm := range nms {
		w.pend = append(w.pend, pendingMatch{seq: seq, nm: nm})
	}
	w.emitPending()
}

// register installs a query on the slot engine with the filter and
// backfill its admission stamped: the in-window past of the newly
// needed types, read through the same EdgeLog.missed call a remote
// slot's register frame is built with. The backfill is read on this
// worker's goroutine against a lock-free log snapshot, so the router
// and the other shards proceed unimpeded; this shard's own queue waits,
// which is exactly the Register barrier semantics. A register carrying
// xfer is a migration's second half: the slot engine grafts the
// source's live state on, or rolls the registration back.
func (w *worker) register(msg message) error {
	reg := dshard.SlotRegister{
		Name: msg.name, Query: msg.q, Config: msg.cfg, Rank: msg.rank, State: msg.xfer,
		Universal: msg.postUniversal, Types: msg.postTypes,
		Backfill: w.r.log.missed(msg.seq, msg.minTS, msg.needAll, msg.heldTypes, msg.needTypes),
	}
	if err := w.slot.Register(reg); err != nil {
		return err
	}
	w.edgesBackfilled.Add(int64(len(reg.Backfill)))
	if msg.migrate {
		w.r.tel.migBackfill.Add(int64(len(reg.Backfill)))
	}
	return nil
}

// handOver is a migrate unregister on a local source: flush the retro
// barrier (standard unregister discipline — the clone must not carry
// repairs the serial schedule already drained), detach the query's
// state (persist.CloneQuery), and remove it here with the stamped
// filter. The handoff happens at this exact queue position: every edge
// enqueued before it is in the clone, every one after it belongs to the
// target.
func (w *worker) handOver(msg message) (out migrateOut) {
	var held bool
	if out.rank, held = w.slot.Rank(msg.name); !held {
		out.err = fmt.Errorf("shard: slot %d does not hold query %q", w.id, msg.name)
		return out
	}
	w.slot.Flush(msg.seq, w.emit)
	if out.eng, out.err = persist.CloneQuery(w.slot.Eng, msg.name); out.err == nil {
		w.slot.Unregister(msg.seq, msg.name, true, msg.postUniversal, msg.postTypes, w.emit)
	}
	return out
}

// publish exposes a slot's gauges to the lock-free Stats/scrape
// readers: a local worker's after each message it handles, a remote
// slot's (the failover hospice's included) from each done frame.
func (w *worker) publish(rep dshard.Report) {
	w.replicaLive.Set(rep.Live)
	w.replicaStored.Set(rep.Stored)
	w.replicaTypes.Set(rep.Types)
	w.replicaVertices.Set(rep.Vertices)
	w.replicaVertexSlots.Set(rep.VertexSlots)
	w.engEdges.Set(rep.Edges)
	w.engPartial.Set(rep.Partial)
	w.treeInserted.Set(rep.TreeInserted)
	w.treeDeduped.Set(rep.TreeDeduped)
	w.treeEmitted.Set(rep.TreeEmitted)
	w.treeEvicted.Set(rep.TreeEvicted)
	w.poolGets.Set(rep.PoolGets)
	w.poolFresh.Set(rep.PoolFresh)
}

// processEdges folds a routed batch into this shard's private engine
// and emits the completed matches — resolved against the private graph
// while their edges are certainly still live. The engine's replica
// filter skips the batch edges outside this shard's footprint; the
// grouped result stays aligned with the batch, so arrival seqs are
// global regardless of what was admitted.
func (w *worker) processEdges(msg message) {
	start := w.r.tel.now()
	defer func() { w.batchTime.Record(w.r.tel.now() - start) }()
	w.pend = w.pend[:0]
	for i, named := range w.slot.ProcessEdges(msg.baseSeq, msg.edges) {
		seq := msg.baseSeq + uint64(i)
		for _, nm := range named {
			w.pend = append(w.pend, pendingMatch{seq: seq, nm: nm})
		}
		if w.bundles != nil {
			// Ordered mode: one bundle per edge, empty or not.
			w.matchesEmitted.Add(int64(len(w.pend)))
			w.bundles <- bundle{seq: seq, block: w.resolveBlock(w.pend)}
			w.pend = w.pend[:0]
		}
	}
	w.emitPending()
	w.publish(w.slot.Report())
}

// pendingMatch is one engine-owned match waiting to be resolved, with
// the arrival seq of the edge that completed it.
type pendingMatch struct {
	seq uint64
	nm  core.NamedMatch
}

// emitPending resolves and delivers w.pend, blockSize matches at a
// time. The engine's results are valid until its next call, so the
// whole list resolves before the worker takes its next message — which
// also means every match of a message is counted as emitted before a
// checkpoint request queued behind it is answered.
func (w *worker) emitPending() {
	for lo := 0; lo < len(w.pend); lo += blockSize {
		hi := min(lo+blockSize, len(w.pend))
		w.matchesEmitted.Add(int64(hi - lo))
		w.r.deliver(w.resolveBlock(w.pend[lo:hi]))
	}
}

// resolveBlock converts engine matches into the portable form, in a
// block drawn from the router's free list (nil for no matches): all IDs
// are looked up against the shard's private graph now (the shared
// core.AppendResolved walk, through the slot), so the emitted matches
// survive later eviction. The block has room for them all before the
// first is resolved, so every match is a capacity-clipped window of its
// slabs and a consumer appending to one cannot write into its neighbour.
func (w *worker) resolveBlock(pend []pendingMatch) *block {
	if len(pend) == 0 {
		return nil
	}
	nb, ne := 0, 0
	for _, p := range pend {
		nb += len(p.nm.Match.VertexOf)
		ne += len(p.nm.Match.EdgeOf)
	}
	b := w.r.getBlock(len(pend), nb, ne)
	for _, p := range pend {
		b0, e0 := len(b.bindings), len(b.edges)
		var rank int
		b.bindings, b.edges, rank = w.slot.AppendResolved(b.bindings, b.edges, p.nm)
		b.matches = append(b.matches, Match{
			Seq: p.seq, Shard: w.id, Query: p.nm.Query, rank: rank,
			FirstTS: p.nm.Match.MinTS, LastTS: p.nm.Match.MaxTS,
			Bindings: b.bindings[b0:len(b.bindings):len(b.bindings)],
			Edges:    b.edges[e0:len(b.edges):len(b.edges)],
		})
	}
	return b
}
