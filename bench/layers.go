package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/decompose"
	"streamgraph/internal/dshard"
	"streamgraph/internal/edlog"
	"streamgraph/internal/metrics"
	"streamgraph/internal/persist"
	"streamgraph/internal/shard"
	"streamgraph/internal/stream"
)

// censusEdges is the stream prefix a traced run drives through the
// topologies that are not the workload's own: enough batches for a
// per-batch figure, eight checkpoint rounds, and short enough that five
// extra passes fit one run.
const censusEdges = 64 * batchSize

// layers collects per-layer values by metric name.
type layers map[string]float64

// traced fills every per-layer metric for the workload's inputs. The
// workload's own call path runs its whole stream, untraced and traced
// in turn; every layer that path does not reach is driven with the same
// inputs too, over the census prefix, so each figure says what that
// layer costs on this workload's stream. End-to-end metrics are never
// taken here.
func (r *runner) traced() error {
	r.tr = newTracer(r.w.name)
	var err error
	if r.in, _, err = r.setup(); err != nil {
		return err
	}
	L := make(layers)
	setupEnd := r.tr.mark()
	collect := r.tr.byName(0, setupEnd)["selectivity.collect"]
	L["selectivity.collect_ns_per_edge"] = float64(collect.total) / float64(len(r.in.edges)/5)

	root := r.tr.begin("replay", -1)
	if err := r.prepare(root); err != nil {
		return err
	}
	r.tr.end(root)
	r.replayLayers(L)
	if err := r.planLayers(L); err != nil {
		return err
	}

	edges := r.in.edges
	census := edges[:min(len(edges), censusEdges)]
	if r.opt.quick {
		census = edges[:min(len(edges), 8*batchSize)]
	}
	native := r.w.topo

	// The workload's own path: untraced and traced repetitions in turn,
	// for half of -seconds; the last traced one supplies the spans.
	var plain, withSpans []float64
	budget := time.Duration(r.opt.seconds * 0.5 * float64(time.Second))
	start := time.Now()
	var inspectErr error
	nativeMark := r.tr.mark()
	for i := 0; i < 4 && (i == 0 || time.Since(start) < budget && !r.opt.quick); i++ {
		p, err := r.closedPass(native, edges, nil, nil, nil)
		if err != nil {
			return err
		}
		r.tr.truncate(nativeMark)
		from := r.tr.mark()
		t, err := r.closedPass(native, edges, r.tr, nil, func(s sut) {
			spans := r.tr.byName(from, r.tr.mark())
			switch s := s.(type) {
			case *engineSUT:
				r.engineLayers(L, s, spans)
			case *multiSUT:
				r.multiLayers(L, s, spans, len(edges), true)
				inspectErr = r.persistLayers(L, s.m)
			case *routerSUT:
				r.routerLayers(L, s, spans, len(edges))
			}
		})
		if err != nil {
			return err
		}
		if inspectErr != nil {
			return inspectErr
		}
		plain = append(plain, p.edgesPerSecond())
		withSpans = append(withSpans, t.edgesPerSecond())
	}
	r.res.Repetitions = len(plain)
	L["bench.trace_overhead_pct"] = (median(plain)/median(withSpans) - 1) * 100

	// Serial census: core.* for a router workload (whole stream, so it
	// lines up with the replay), resolve and persist figures for a
	// per-edge one.
	if native != topoMulti {
		multiEdges := census
		if native != topoEngine {
			multiEdges = edges
		}
		from := r.tr.mark()
		_, err := r.closedPass(topoMulti, multiEdges, r.tr, nil, func(s sut) {
			m := s.(*multiSUT)
			r.multiLayers(L, m, r.tr.byName(from, r.tr.mark()), len(multiEdges), native != topoEngine)
			inspectErr = r.persistLayers(L, m.m)
		})
		if err != nil {
			return err
		}
		if inspectErr != nil {
			return inspectErr
		}
	}

	// Router census: each topology that is not the workload's own.
	var shardRate float64
	for _, topo := range []topology{topoShard, topoRemote, topoDurable} {
		if topo == native {
			continue
		}
		from := r.tr.mark()
		out, err := r.closedPass(topo, census, r.tr, nil, func(s sut) {
			r.routerLayers(L, s.(*routerSUT), r.tr.byName(from, r.tr.mark()), len(census))
		})
		if err != nil {
			return err
		}
		if topo == topoShard {
			shardRate = out.edgesPerSecond()
		}
	}

	// Paced shard2 pass: admission cost with queues that never fill,
	// queue wait and batch time at a sustainable rate. The workload's
	// fixed rate when shard2 is its own path, a third of what the census
	// just measured otherwise.
	rate, pacedStream := int(shardRate/3), census
	if native == topoShard {
		rate = r.w.pacedRate
		pacedStream = edges[:r.pacedEdges(rate)]
	}
	from := r.tr.mark()
	paced, err := r.pacedPass(topoShard, pacedStream, max(rate, batchSize), r.tr, func(s sut) {
		ingest := r.tr.byName(from, r.tr.mark())["shard.ingest_batch"]
		L["shard.admit_ns_per_edge"] = float64(ingest.total) / float64(len(pacedStream))
		router := s.(*routerSUT).r
		L["shard.queue_wait_p50_us"] = float64(seriesHistogram(router, "sg_shard_queue_wait_ns").Quantile(0.5)) / 1e3
		L["shard.process_batch_p50_us"] = float64(seriesHistogram(router, "sg_shard_process_batch_ns").Quantile(0.5)) / 1e3
	})
	if err != nil {
		return err
	}
	r.res.Unsustainable = paced.unsustainable()
	r.res.GenLateP99MS = paced.lateP99MS()
	L["bench.gen_late_p99_ms"] = r.res.GenLateP99MS
	L["shard.backpressure_ns_per_edge"] = L["shard.ingest_call_ns_per_edge"] - L["shard.admit_ns_per_edge"]

	if err := r.wireLayers(L, census); err != nil {
		return err
	}
	if err := r.edlogLayers(L, census); err != nil {
		return err
	}
	if err := r.parseLayers(L, census); err != nil {
		return err
	}

	for _, def := range perLayer {
		v, ok := L[def.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", def.Name)
		}
		r.res.PerLayer = append(r.res.PerLayer, newMetric(def, v, v))
	}
	return r.tr.dump(r.opt.outDir)
}

// replayLayers reads graph.*, iso.* and sjtree.* off the stage replay.
func (r *runner) replayLayers(L layers) {
	o, n := r.oracle, float64(len(r.in.edges))
	L["graph.add_ns_per_edge"] = float64(o.graphAdd) / n
	L["graph.expire_ns_per_edge"] = float64(o.graphExpire) / n
	L["graph.live_edges_peak"] = float64(o.liveEdgesPeak)
	L["iso.search_ns_per_edge"] = float64(o.isoSearch) / n
	L["iso.steps_per_edge"] = float64(o.isoSteps) / n
	L["iso.leaf_matches_per_edge"] = float64(o.leafMatches) / n
	L["sjtree.insert_ns_per_edge"] = float64(o.treeInsert) / n
	L["sjtree.expire_ns_per_edge"] = float64(o.treeExpire) / n
	L["sjtree.join_hit_ratio"] = ratio(o.tree.JoinsSucceeded, o.tree.JoinsAttempted)
	L["sjtree.expire_scanned_per_evicted"] = ratio(o.tree.ExpireScanned, o.tree.Evicted)
	L["sjtree.stored_peak"] = float64(o.tree.PeakStored)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// planLayers times the planner the workload's strategy uses, per query.
func (r *runner) planLayers(L layers) error {
	from := r.tr.mark()
	for _, pq := range r.in.queries {
		id := r.tr.begin("decompose.plan", -1)
		var err error
		if r.w.strategy == core.StrategyAuto {
			_, _, _, err = decompose.Auto(pq.q, r.in.stats)
		} else {
			_, err = decompose.Decompose(pq.q, r.in.stats, decompose.Single)
		}
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("plan %s: %w", pq.name, err)
		}
	}
	plan := r.tr.byName(from, r.tr.mark())["decompose.plan"]
	L["decompose.plan_us_per_query"] = float64(plan.total) / 1e3 / float64(plan.calls)
	return nil
}

// processLayers turns core.process spans into a per-edge cost and a
// 99.9th percentile: over sampled calls on the per-edge path, over
// batches (cost divided by the edges offered) on the batch path.
func (r *runner) processLayers(L layers, process *layerTime, perCallEdges float64) {
	sorted := append([]int64(nil), process.durations...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	perEdge := float64(process.total) / (float64(process.calls) * perCallEdges)
	L["core.process_ns_per_edge"] = perEdge
	L["core.process_edge_p999_us"] = float64(percentile(sorted, 99.9)) / 1e3
	// What the engine spends beyond (eager rows) or saves against (lazy
	// rows, negative) the same stream pushed through the bare stages.
	stages := float64(r.oracle.stageTotal()) / float64(len(r.in.edges))
	L["core.self_ns_per_edge"] = perEdge - stages
	L["core.vs_eager_replay_ratio"] = perEdge / stages
}

func (r *runner) engineLayers(L layers, s *engineSUT, spans map[string]*layerTime) {
	r.processLayers(L, spans["core.process"], 1)
	st := s.eng.Stats()
	r.counterLayers(L, []core.Stats{st}, []int{s.eng.Tree().NumLeaves()})
	gets, fresh := s.eng.Tree().Pool().Stats()
	L["core.pool_fresh_ratio"] = ratio(fresh, gets)
}

// multiLayers reads what a MultiEngine pass measured; withCore says
// whether the core.* figures are this pass's to give.
func (r *runner) multiLayers(L layers, s *multiSUT, spans map[string]*layerTime, edges int, withCore bool) {
	if resolve := spans["core.resolve"]; resolve != nil {
		L["core.resolve_ns_per_match"] = float64(resolve.total) / float64(resolve.calls)
	} else {
		L["core.resolve_ns_per_match"] = 0 // the prefix held no match
	}
	if !withCore {
		return
	}
	process := spans["core.process"]
	r.processLayers(L, process, float64(edges)/float64(process.calls))
	var stats []core.Stats
	var leaves []int
	for _, name := range s.m.Registered() {
		eng := s.m.QueryEngine(name)
		stats = append(stats, eng.Stats())
		leaves = append(leaves, eng.Tree().NumLeaves())
	}
	r.counterLayers(L, stats, leaves)
	c := s.m.Counters()
	L["core.pool_fresh_ratio"] = ratio(c.PoolFresh, c.PoolGets)
}

// counterLayers folds Engine.Stats of every query engine of a pass.
func (r *runner) counterLayers(L layers, stats []core.Stats, leaves []int) {
	var searches, possible, retro, matches, edges int64
	for i, st := range stats {
		searches += st.LeafSearches
		possible += st.EdgesProcessed * int64(leaves[i])
		retro += st.RetroSearches
		matches += st.CompleteMatches
		edges = max(edges, st.EdgesProcessed)
	}
	L["core.lazy_skip_ratio"] = 1 - ratio(searches, possible)
	L["core.retro_searches_per_edge"] = ratio(retro, edges)
	L["core.matches_per_edge"] = ratio(matches, edges)
}

// persistLayers saves and reloads the end-of-stream engine image.
func (r *runner) persistLayers(L layers, m *core.MultiEngine) error {
	var buf bytes.Buffer
	id := r.tr.begin("persist.save", -1)
	t0 := time.Now()
	err := persist.SaveMulti(&buf, m)
	L["persist.save_ms"] = float64(time.Since(t0)) / 1e6
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("persist save: %w", err)
	}
	L["persist.image_mb"] = float64(buf.Len()) / (1 << 20)
	id = r.tr.begin("persist.load", -1)
	t0 = time.Now()
	_, err = persist.LoadMulti(bytes.NewReader(buf.Bytes()))
	L["persist.load_ms"] = float64(time.Since(t0)) / 1e6
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("persist load: %w", err)
	}
	return nil
}

// seriesHistogram merges every histogram series of one name.
func seriesHistogram(r *shard.Router, name string) *metrics.Histogram {
	var merged metrics.Histogram
	for _, smp := range r.Metrics().Snapshot() {
		if smp.Name == name && smp.Hist != nil {
			merged.Merge(smp.Hist)
		}
	}
	return &merged
}

// routerLayers reads what a closed-loop router pass measured: the
// shard.* figures from the in-process topology, dshard.* from the
// remote one, checkpoint figures from the durable one.
func (r *runner) routerLayers(L layers, s *routerSUT, spans map[string]*layerTime, edges int) {
	router := s.r
	switch s.topo {
	case topoRemote:
		n := float64(edges)
		L["dshard.wire_bytes_per_edge"] = float64(seriesSum(router, "sg_dshard_bytes_in_total", "sg_dshard_bytes_out_total")) / n
		L["dshard.raw_bytes_per_edge"] = float64(seriesSum(router, "sg_dshard_raw_bytes_in_total", "sg_dshard_raw_bytes_out_total")) / n
		batches := float64((edges + batchSize - 1) / batchSize)
		L["dshard.frames_per_batch"] = float64(seriesSum(router, "sg_dshard_frames_in_total", "sg_dshard_frames_out_total")) / batches
		rtt := seriesHistogram(router, "sg_dshard_ack_rtt_ns")
		L["dshard.ack_rtt_p50_us"] = float64(rtt.Quantile(0.5)) / 1e3
		L["dshard.ack_rtt_p99_us"] = float64(rtt.Quantile(0.99)) / 1e3
	case topoDurable:
		L["shard.checkpoint_round_p50_ms"] = float64(seriesHistogram(router, "sg_checkpoint_round_ns").Quantile(0.5)) / 1e6
		L["shard.checkpoint_rounds"] = float64(seriesSum(router, "sg_checkpoint_rounds_total"))
	default:
		L["shard.ingest_call_ns_per_edge"] = float64(spans["shard.ingest_batch"].total) / float64(edges)
		L["shard.register_ms"] = float64(spans["shard.register"].total) / 1e6
		L["shard.drain_tail_ms"] = float64(s.drainTail) / 1e6
		gated, routed := seriesSum(router, "sg_shard_edges_gated_total"), seriesSum(router, "sg_shard_edges_routed_total")
		L["shard.gated_ratio"] = ratio(gated, gated+routed)
		var stored, emitted, top int64
		stats := router.Stats()
		for _, st := range stats {
			stored += st.ReplicaStored
			emitted += st.MatchesEmitted
			top = max(top, st.MatchesEmitted)
		}
		L["shard.replication_factor"] = float64(stored) / float64(edges)
		L["shard.skew"] = ratio(top*int64(len(stats)), emitted)
	}
}

// wireLayers replays the dshard edge-list codec over the batches.
func (r *runner) wireLayers(L layers, edges []stream.Edge) error {
	var encode, decode time.Duration
	var buf []byte
	for lo := 0; lo < len(edges); lo += batchSize {
		batch := edges[lo:min(lo+batchSize, len(edges))]
		id := r.tr.begin("dshard.encode", -1)
		t0 := time.Now()
		buf = dshard.AppendEdgeList(buf[:0], batch)
		encode += time.Since(t0)
		r.tr.end(id)
		id = r.tr.begin("dshard.decode", -1)
		t0 = time.Now()
		got, _, err := dshard.DecodeEdgeList(buf)
		decode += time.Since(t0)
		r.tr.end(id)
		if err != nil || len(got) != len(batch) {
			return fmt.Errorf("dshard codec: decoded %d of %d edges: %v", len(got), len(batch), err)
		}
	}
	L["dshard.encode_ns_per_edge"] = float64(encode) / float64(len(edges))
	L["dshard.decode_ns_per_edge"] = float64(decode) / float64(len(edges))
	return nil
}

// edlogLayers replays the durable log: one Append per batch and a Sync
// every 4096 edges into a fresh directory, then one Replay of it.
func (r *runner) edlogLayers(L layers, edges []stream.Edge) error {
	dir, err := os.MkdirTemp(r.opt.tmpDir, "edlog-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := edlog.Open(dir, 0)
	if err != nil {
		return fmt.Errorf("edlog open: %w", err)
	}
	defer log.Close()
	var appendT time.Duration
	var syncs []int64
	for lo := 0; lo < len(edges); lo += batchSize {
		batch := edges[lo:min(lo+batchSize, len(edges))]
		id := r.tr.begin("edlog.append", -1)
		t0 := time.Now()
		err := log.Append(batch, uint64(lo))
		appendT += time.Since(t0)
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("edlog append: %w", err)
		}
		if (lo+len(batch))%4096 == 0 || lo+len(batch) == len(edges) {
			id := r.tr.begin("edlog.sync", -1)
			t0 := time.Now()
			err := log.Sync()
			syncs = append(syncs, int64(time.Since(t0)))
			r.tr.end(id)
			if err != nil {
				return fmt.Errorf("edlog sync: %w", err)
			}
		}
	}
	sort.Slice(syncs, func(i, j int) bool { return syncs[i] < syncs[j] })
	L["edlog.append_ns_per_edge"] = float64(appendT) / float64(len(edges))
	L["edlog.sync_ms_p50"] = float64(percentile(syncs, 50)) / 1e6
	L["edlog.disk_bytes_per_edge"] = float64(log.DiskBytes()) / float64(len(edges))

	replayed := 0
	id := r.tr.begin("edlog.replay", -1)
	t0 := time.Now()
	err = log.Replay(func(es []stream.Edge, _ uint64) error {
		replayed += len(es)
		return nil
	})
	L["edlog.replay_ns_per_edge"] = float64(time.Since(t0)) / float64(len(edges))
	r.tr.end(id)
	if err != nil || replayed != len(edges) {
		return fmt.Errorf("edlog replay: %d of %d edges: %v", replayed, len(edges), err)
	}
	return nil
}

// parseLayers renders the stream with stream.Write and times
// stream.Reader.Next over it.
func (r *runner) parseLayers(L layers, edges []stream.Edge) error {
	var buf bytes.Buffer
	if err := stream.Write(&buf, edges); err != nil {
		return fmt.Errorf("stream write: %w", err)
	}
	rd := stream.NewReader(&buf)
	parsed := 0
	id := r.tr.begin("stream.parse", -1)
	t0 := time.Now()
	for {
		_, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("stream parse: %w", err)
		}
		parsed++
	}
	L["stream.parse_ns_per_edge"] = float64(time.Since(t0)) / float64(len(edges))
	r.tr.end(id)
	if parsed != len(edges) {
		return fmt.Errorf("stream parse: %d of %d edges", parsed, len(edges))
	}
	return nil
}
