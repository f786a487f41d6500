package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// metricDef names one metric; BENCHMARK.json lists the same names and
// units (bench_test.go holds the two together) and owns the bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees, reported by
// every workload from untraced repetitions. failed_ops, the eighth
// figure of the issue, is the failed count beside ops in every result
// and must stay 0; it cannot be a bounded metric because it is 0.
var endToEnd = []metricDef{
	{"edges_per_s", "edges/s", "higher"},
	{"match_lag_p50_ms", "ms", "lower"},
	{"match_lag_p95_ms", "ms", "lower"},
	{"allocs_per_edge", "allocs/edge", "lower"},
	{"retained_heap_mb", "MiB", "lower"},
	{"recovery_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of single layers, filled by a traced run.
var perLayer = []metricDef{
	{"stream.parse_ns_per_edge", "ns/edge", "lower"},
	{"selectivity.collect_ns_per_edge", "ns/edge", "lower"},
	{"decompose.plan_us_per_query", "us/query", "lower"},
	{"graph.add_ns_per_edge", "ns/edge", "lower"},
	{"graph.expire_ns_per_edge", "ns/edge", "lower"},
	{"graph.live_edges_peak", "count", "lower"},
	{"iso.search_ns_per_edge", "ns/edge", "lower"},
	{"iso.steps_per_edge", "steps/edge", "lower"},
	{"iso.leaf_matches_per_edge", "matches/edge", "lower"},
	{"sjtree.insert_ns_per_edge", "ns/edge", "lower"},
	{"sjtree.expire_ns_per_edge", "ns/edge", "lower"},
	{"sjtree.join_hit_ratio", "ratio", "higher"},
	{"sjtree.expire_scanned_per_evicted", "ratio", "lower"},
	{"sjtree.stored_peak", "count", "lower"},
	{"core.process_ns_per_edge", "ns/edge", "lower"},
	{"core.process_edge_p999_us", "us", "lower"},
	{"core.self_ns_per_edge", "ns/edge", "lower"},
	{"core.vs_eager_replay_ratio", "ratio", "lower"},
	{"core.lazy_skip_ratio", "ratio", "higher"},
	{"core.retro_searches_per_edge", "searches/edge", "lower"},
	{"core.matches_per_edge", "matches/edge", "higher"},
	{"core.resolve_ns_per_match", "ns/match", "lower"},
	{"core.pool_fresh_ratio", "ratio", "lower"},
	{"shard.ingest_call_ns_per_edge", "ns/edge", "lower"},
	{"shard.admit_ns_per_edge", "ns/edge", "lower"},
	{"shard.backpressure_ns_per_edge", "ns/edge", "lower"},
	{"shard.queue_wait_p50_us", "us", "lower"},
	{"shard.process_batch_p50_us", "us", "lower"},
	{"shard.gated_ratio", "ratio", "higher"},
	{"shard.replication_factor", "ratio", "lower"},
	{"shard.skew", "ratio", "lower"},
	{"shard.drain_tail_ms", "ms", "lower"},
	{"shard.register_ms", "ms", "lower"},
	{"dshard.encode_ns_per_edge", "ns/edge", "lower"},
	{"dshard.decode_ns_per_edge", "ns/edge", "lower"},
	{"dshard.wire_bytes_per_edge", "bytes/edge", "lower"},
	{"dshard.raw_bytes_per_edge", "bytes/edge", "lower"},
	{"dshard.frames_per_batch", "frames/batch", "lower"},
	{"dshard.ack_rtt_p50_us", "us", "lower"},
	{"dshard.ack_rtt_p99_us", "us", "lower"},
	{"edlog.append_ns_per_edge", "ns/edge", "lower"},
	{"edlog.sync_ms_p50", "ms", "lower"},
	{"edlog.disk_bytes_per_edge", "bytes/edge", "lower"},
	{"edlog.replay_ns_per_edge", "ns/edge", "lower"},
	{"persist.save_ms", "ms", "lower"},
	{"persist.load_ms", "ms", "lower"},
	{"persist.image_mb", "MiB", "lower"},
	{"shard.checkpoint_round_p50_ms", "ms", "lower"},
	{"shard.checkpoint_rounds", "count", "lower"},
	{"bench.gen_late_p99_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// metric is one named figure of one workload: the value reported, and
// the samples of the run it was condensed from.
type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Value is the figure the driver and compare see: the best sample of
	// a time or rate (see bestOf), the median of a count.
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Spread float64   `json:"spread"` // IQR / median over Values
	Values []float64 `json:"values"`
}

func newMetric(def metricDef, value float64, values ...float64) metric {
	m := metric{Name: def.Name, Unit: def.Unit, Value: value, Median: median(values), Spread: spread(values), Values: values}
	if len(values) > 0 {
		s := append([]float64(nil), values...)
		sort.Float64s(s)
		m.Min, m.Max = s[0], s[len(s)-1]
	}
	return m
}

// workloadResult is everything one run of one workload reports.
type workloadResult struct {
	Workload string `json:"workload"`
	// Ops is the number of matches the oracle expects of the stream;
	// Attempted adds it up over every checked pass, and Failed counts
	// oracle matches not delivered, delivered matches the oracle does
	// not hold, and refused batches, persist errors and reconnects.
	Ops       int64 `json:"ops"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed_ops"`
	// Unsustainable marks a paced pass whose generator ran more than
	// one batch interval late at the median.
	Unsustainable bool `json:"unsustainable,omitempty"`
	// GenLateP99MS is how late, at the 99th percentile of batches, the
	// generator of the paced pass offered a batch.
	GenLateP99MS float64  `json:"gen_late_p99_ms"`
	EndToEnd     []metric `json:"end_to_end,omitempty"`
	PerLayer     []metric `json:"per_layer,omitempty"`
	Repetitions  int      `json:"repetitions"`
	// StealShare is the share of wanted CPU time the host withheld
	// during the timed repetitions (0 on a quiet host).
	StealShare float64 `json:"steal_share"`
	WallS      float64 `json:"wall_s"`
}

func (r workloadResult) metric(name string) (metric, bool) {
	for _, m := range r.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// document is the one JSON document a run writes.
type document struct {
	Env       environment        `json:"env"`
	Workloads []workloadResult   `json:"workloads"`
	Derived   map[string]float64 `json:"derived,omitempty"`
}

func (d document) workload(name string) (workloadResult, bool) {
	for _, w := range d.Workloads {
		if w.Workload == name {
			return w, true
		}
	}
	return workloadResult{}, false
}

// derive fills the two ungated ratios when both of their rows ran.
func (d *document) derive() {
	ratio := func(name, num, den string) {
		n, ok1 := d.workload(num)
		m, ok2 := d.workload(den)
		if !ok1 || !ok2 {
			return
		}
		a, _ := n.metric("edges_per_s")
		b, _ := m.metric("edges_per_s")
		if b.Value > 0 {
			if d.Derived == nil {
				d.Derived = make(map[string]float64)
			}
			d.Derived[name] = a.Value / b.Value
		}
	}
	ratio("lazy_speedup", "nf_rare_lazy", "nf_rare_eager")
	ratio("shard_speedup", "multi6_shard2", "multi6_serial")
}

func readDocument(path string) (document, error) {
	var d document
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func printMetrics(w io.Writer, title string, ms []metric) {
	if len(ms) == 0 {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tunit\tvalue\tmedian\tmin\tmax\tIQR/median\tn\n", title)
	for _, m := range ms {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.1f%%\t%d\n", m.Name, m.Unit, m.Value, m.Median, m.Min, m.Max, 100*m.Spread, len(m.Values))
	}
	tw.Flush()
}

func (r workloadResult) print(w io.Writer) {
	flag := ""
	if r.Unsustainable {
		flag = "  UNSUSTAINABLE paced rate"
	}
	fmt.Fprintf(w, "== %s: ops %d, failed_ops %d of %d attempted, %d repetitions, steal %.1f%%, generator p99 %.3f ms late, %.1f s%s\n",
		r.Workload, r.Ops, r.Failed, r.Attempted, r.Repetitions, 100*r.StealShare, r.GenLateP99MS, r.WallS, flag)
	printMetrics(w, "end-to-end", r.EndToEnd)
	printMetrics(w, "per-layer", r.PerLayer)
}

// contractLine is the last line of standard output when one workload
// was asked for: the object the driver reads.
func (r workloadResult) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]value)}
	ms := r.EndToEnd
	if len(r.PerLayer) > 0 {
		ms = r.PerLayer
	}
	for _, m := range ms {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(data)
}
