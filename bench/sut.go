package main

import (
	"fmt"
	"net"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/dshard"
	"streamgraph/internal/iso"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/shard"
	"streamgraph/internal/stream"
)

// inputs is what set-up produces for one workload and seed; the system
// under test receives nothing else.
type inputs struct {
	w       workload
	edges   []stream.Edge
	epochs  int
	window  int64
	stats   *selectivity.Collector
	queries []parsedQuery
	// worker hosts the remote slots of topoRemote; nil until a remote
	// system is first started.
	worker *remoteWorker
	// tmp is the directory data dirs are made under.
	tmp string
}

// remoteSlots is the number of dshard workers of topoRemote.
const remoteSlots = 2

// durableConfig is the router configuration of topoDurable on dir, for
// the first open and for every restart.
func (in *inputs) durableConfig(dir string) shard.Config {
	return shard.Config{Shards: 2, Window: in.window, DataDir: dir, CheckpointEvery: 4096}
}

func (in *inputs) engineConfig() core.Config {
	return core.Config{Strategy: in.w.strategy, Window: in.window, Stats: in.stats, MaxMatchesPerSearch: in.w.matchCap}
}

// sink receives every delivered match: its hash, and in a paced pass
// the lag against the due time of the batch that held its last edge.
// The consumer goroutine of a router owns it while the pass runs.
type sink struct {
	hashes []uint64
	// Paced pass only: the batch holding the edge with arrival index
	// seq is due at t0 + (seq/512)*interval. The generator sets t0 and
	// interval before it stores true into paced, and stores false once
	// the last batch is in, so that the end-of-stream flush is not
	// sampled. lagSeq holds the arrival index each lag belongs to.
	paced    atomic.Bool
	t0       time.Time
	interval time.Duration
	lags     []int64
	lagSeq   []int32
}

func (s *sink) reset() {
	s.hashes = s.hashes[:0]
	s.lags = s.lags[:0]
	s.lagSeq = s.lagSeq[:0]
	s.paced.Store(false)
}

// lag records now minus the due time of the batch that holds edge seq.
func (s *sink) lag(seq int) {
	if s.paced.Load() {
		s.lags = append(s.lags, int64(time.Since(s.t0)-time.Duration(seq/batchSize)*s.interval))
		s.lagSeq = append(s.lagSeq, int32(seq))
	}
}

// match records a match completed by the edge with arrival index seq.
func (s *sink) match(h uint64, seq int) {
	s.hashes = append(s.hashes, h)
	s.lag(seq)
}

// sut is one freshly built system under test, driven by one generator.
type sut interface {
	// offer hands over batch number b; it returns when the system is
	// ready for the next one (closed loop).
	offer(batch []stream.Edge, b int)
	// finish ends the stream and returns once the last match has been
	// delivered to the sink.
	finish()
	// failures counts what went wrong besides the oracle's verdict:
	// refused batches, persist errors, remote reconnects.
	failures() int64
	// async reports whether matches arrive on another goroutine.
	async() bool
	// release frees what the system holds outside the heap.
	release()
}

// start builds a fresh system of the given topology for the inputs.
// sk receives the matches; tr (may be nil) records spans under parent.
func (in *inputs) start(topo topology, sk *sink, tr *tracer, parent int32) (sut, error) {
	switch topo {
	case topoEngine:
		if len(in.queries) != 1 {
			return nil, fmt.Errorf("topology engine takes one query, workload %s has %d", in.w.name, len(in.queries))
		}
		pq := in.queries[0]
		eng, err := core.New(pq.q, in.engineConfig())
		if err != nil {
			return nil, err
		}
		return &engineSUT{eng: eng, hasher: newQueryHasher(pq.name, pq.q), sink: sk, tr: tr, parent: parent}, nil
	case topoMulti:
		m := core.NewMulti(core.MultiConfig{Window: in.window})
		for _, pq := range in.queries {
			if err := m.Register(pq.name, pq.q, in.engineConfig()); err != nil {
				return nil, err
			}
		}
		return &multiSUT{m: m, sink: sk, tr: tr, parent: parent}, nil
	}

	s := &routerSUT{topo: topo, sink: sk, tr: tr, parent: parent, done: make(chan struct{})}
	var err error
	switch topo {
	case topoShard:
		s.r = shard.New(shard.Config{Shards: 2, Window: in.window})
	case topoRemote:
		if in.worker == nil {
			if in.worker, err = startRemoteWorker(); err != nil {
				return nil, err
			}
		}
		remotes := make([]string, remoteSlots)
		for i := range remotes {
			remotes[i] = in.worker.addr
		}
		s.r = shard.New(shard.Config{Remotes: remotes, Window: in.window, Wire: shard.WireAuto})
	case topoDurable:
		if s.dir, err = os.MkdirTemp(in.tmp, in.w.name+"-data-"); err != nil {
			return nil, err
		}
		if s.r, _, err = shard.Open(in.durableConfig(s.dir)); err != nil {
			os.RemoveAll(s.dir)
			return nil, err
		}
	}
	// Drain, not a bare range over Matches(): a durable router's
	// checkpoint barrier waits on the consumed count Drain keeps.
	go func() {
		defer close(s.done)
		s.r.Drain(func(m shard.Match) { sk.match(hashShardMatch(m), int(m.Seq)) })
	}()
	for _, pq := range in.queries {
		id := tr.begin("shard.register", parent)
		err := s.r.Register(pq.name, pq.q, in.engineConfig())
		tr.end(id)
		if err != nil {
			s.finish()
			s.release()
			return nil, err
		}
	}
	return s, nil
}

// engineSUT is core.Engine fed one edge at a time.
type engineSUT struct {
	eng    *core.Engine
	hasher queryHasher
	sink   *sink
	tr     *tracer
	parent int32
	seen   int
}

// processSample is how many ProcessEdge calls go by per traced one: a
// timer pair costs tens of ns against a ~750 ns edge. It is prime so
// that the engine's eviction sweep, which runs every 256th call, is
// sampled as often as any other call.
const processSample = 17

func (s *engineSUT) offer(batch []stream.Edge, b int) {
	g := s.eng.Graph()
	for i, se := range batch {
		seq := b*batchSize + i
		var ms []iso.Match
		if s.tr != nil && s.seen%processSample == 0 {
			id := s.tr.begin("core.process", s.parent)
			ms = s.eng.ProcessEdge(se)
			s.tr.end(id)
		} else {
			ms = s.eng.ProcessEdge(se)
		}
		s.seen++
		for _, m := range ms {
			s.sink.match(s.hasher.hash(g, m), seq)
		}
		// On the per-edge rows every edge is a lag sample besides every
		// match: the lag a match completed by this edge would see. The
		// rare-path rows yield a match every ~60 edges, in bursts, too
		// few for a percentile; on the dense row matches outnumber edges
		// 13 to 1 and carry the figure.
		s.sink.lag(seq)
	}
}

func (s *engineSUT) finish() {
	for _, m := range s.eng.FlushPending() {
		s.sink.hashes = append(s.sink.hashes, s.hasher.hash(s.eng.Graph(), m))
	}
}

func (s *engineSUT) failures() int64 { return 0 }
func (s *engineSUT) async() bool     { return false }
func (s *engineSUT) release()        {}

// multiSUT is core.MultiEngine fed 512-edge batches, every match
// resolved into the portable form the routers deliver.
type multiSUT struct {
	m      *core.MultiEngine
	sink   *sink
	tr     *tracer
	parent int32
	seen   int
}

// resolveSample is how many ResolveMatch calls go by per traced one.
const resolveSample = 7

func (s *multiSUT) offer(batch []stream.Edge, b int) {
	id := s.tr.begin("core.process", s.parent)
	nms := s.m.ProcessBatch(batch)
	s.tr.end(id)
	s.deliver(nms, b*batchSize)
}

// deliver resolves the matches of the batch that starts at arrival
// index seq.
func (s *multiSUT) deliver(nms []core.NamedMatch, seq int) {
	for _, nm := range nms {
		var bindings []core.PortableBinding
		var edges []core.PortableMatchEdge
		if s.tr != nil && s.seen%resolveSample == 0 {
			id := s.tr.begin("core.resolve", s.parent)
			bindings, edges = s.m.ResolveMatch(nm)
			s.tr.end(id)
		} else {
			bindings, edges = s.m.ResolveMatch(nm)
		}
		s.seen++
		s.sink.match(hashResolved(nm.Query, bindings, edges), seq)
	}
}

func (s *multiSUT) finish() { s.deliver(s.m.FlushPending(), 0) }

func (s *multiSUT) failures() int64 { return 0 }
func (s *multiSUT) async() bool     { return false }
func (s *multiSUT) release()        {}

// routerSUT is a shard.Router with one consumer goroutine on Drain.
type routerSUT struct {
	r       *shard.Router
	topo    topology
	sink    *sink
	tr      *tracer
	parent  int32
	done    chan struct{}
	dir     string // data dir of a durable router
	refused int64
	// drainTail is the time from finish being called to Close and the
	// consumer returning.
	drainTail time.Duration
}

func (s *routerSUT) offer(batch []stream.Edge, b int) {
	id := s.tr.begin("shard.ingest_batch", s.parent)
	base := s.r.IngestBatch(batch)
	s.tr.end(id)
	if base != uint64(b)*batchSize {
		s.refused++
	}
}

func (s *routerSUT) finish() {
	t0 := time.Now()
	s.r.Close()
	<-s.done
	s.drainTail = time.Since(t0)
}

func (s *routerSUT) failures() int64 {
	n := s.refused
	if s.r.PersistErr() != nil {
		n++
	}
	if s.topo == topoRemote {
		if extra := seriesSum(s.r, "sg_dshard_connects_total") - remoteSlots; extra > 0 {
			n += extra
		}
	}
	return n
}

func (s *routerSUT) async() bool { return true }

// release removes the data dir unless keepDir took it over.
func (s *routerSUT) release() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// keepDir hands the data dir to the caller, who removes it.
func (s *routerSUT) keepDir() string {
	dir := s.dir
	s.dir = ""
	return dir
}

// seriesSum adds up every series with one of the names in the router's
// registry.
func seriesSum(r *shard.Router, names ...string) int64 {
	var total int64
	for _, smp := range r.Metrics().Snapshot() {
		if slices.Contains(names, smp.Name) {
			total += smp.Value
		}
	}
	return total
}

// remoteWorker is an in-process dshard.Server on loopback TCP; every
// connection gets its own engine, as separate sgshard processes would.
type remoteWorker struct {
	srv  *dshard.Server
	addr string
	done chan struct{}
}

func startRemoteWorker() (*remoteWorker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("remote worker: %w", err)
	}
	w := &remoteWorker{srv: dshard.NewServer(), addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		_ = w.srv.Serve(ln) // returns when stop closes the listener
	}()
	return w, nil
}

func (w *remoteWorker) stop() {
	w.srv.Close()
	<-w.done
}
