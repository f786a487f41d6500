// Ablation benchmarks for the extensions beyond the paper's core:
// sketch-based statistics vs the exact collector, cost-based planning
// vs the greedy decomposition, triangle primitives, parallel multi-query
// scaling, snapshot round-trips, and the ingest/predicate hot paths.
package streamgraph

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"streamgraph/internal/attr"
	"streamgraph/internal/core"
	"streamgraph/internal/datagen"
	"streamgraph/internal/experiments"
	"streamgraph/internal/ingest"
	"streamgraph/internal/metrics"
	"streamgraph/internal/persist"
	"streamgraph/internal/plan"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/sketch"
	"streamgraph/internal/stream"
)

// BenchmarkStatisticsBackends compares the exact collector with the
// bounded-memory sketch estimator on the same stream: per-edge update
// cost and resident statistics footprint.
func BenchmarkStatisticsBackends(b *testing.B) {
	nf, _, _ := benchDatasets()
	b.Run("exact", func(b *testing.B) {
		c := selectivity.NewCollector()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Add(nf.Edges[i%len(nf.Edges)])
		}
	})
	b.Run("sketch", func(b *testing.B) {
		est := sketch.NewEstimator(1<<16, 4, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			est.Add(nf.Edges[i%len(nf.Edges)])
		}
		b.ReportMetric(float64(est.MemoryBytes()), "stats-bytes")
	})
}

// BenchmarkPlannerAblation executes the same 5-hop query under the
// greedy 2-edge decomposition and the exact-DP plan, reporting the
// measured runtime ratio (greedy over DP) and each plan's peak stored
// partial matches. This is the experiment motivating the cost-based
// optimizer: the wedge-based join model predicts the storage blow-up
// the paper's min-frequency bound misses.
func BenchmarkPlannerAblation(b *testing.B) {
	edges := datagen.Netflow(datagen.NetflowConfig{Edges: 10000, Hosts: 1000, Seed: 21})
	c := selectivity.NewCollector()
	c.AddAll(edges[:4000])
	q := query.NewPath("ip", "TCP", "ESP", "UDP", "TCP", "ICMP")

	greedyEng, err := core.New(q, core.Config{Strategy: core.StrategyPathLazy, Stats: c})
	if err != nil {
		b.Fatal(err)
	}
	greedyLeaves := greedyEng.Tree().LeafSets()
	p := &plan.Planner{Stats: c, AvgDegree: c.AvgDegreeEstimate()}
	dpLeaves, _, err := p.Optimal(q)
	if err != nil {
		b.Fatal(err)
	}

	run := func(leaves [][]int) (time.Duration, int64) {
		eng, err := core.New(q, core.Config{Strategy: core.StrategySingleLazy, Leaves: leaves, Stats: c})
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		for _, e := range edges[4000:] {
			eng.ProcessEdge(e)
		}
		return time.Since(t0), eng.Stats().Tree.PeakStored
	}
	var ratio, dpStored, greedyStored float64
	for i := 0; i < b.N; i++ {
		gt, gs := run(greedyLeaves)
		dt, ds := run(dpLeaves)
		ratio = float64(gt) / float64(dt)
		greedyStored, dpStored = float64(gs), float64(ds)
	}
	b.ReportMetric(ratio, "greedy-over-dp-time")
	b.ReportMetric(greedyStored, "greedy-peak-stored")
	b.ReportMetric(dpStored, "dp-peak-stored")
}

// BenchmarkTrianglePrimitive compares matching a cyclic query with a
// single-edge decomposition against one atomic triangle leaf
// (Section 5.1's foreseen triangle primitives).
func BenchmarkTrianglePrimitive(b *testing.B) {
	var edges []stream.Edge
	ts := int64(0)
	for i := 0; i < 400; i++ {
		a, bb, cc := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i)
		ts++
		edges = append(edges, stream.Edge{Src: a, SrcLabel: "ip", Dst: bb, DstLabel: "ip", Type: "TCP", TS: ts})
		ts++
		edges = append(edges, stream.Edge{Src: bb, SrcLabel: "ip", Dst: cc, DstLabel: "ip", Type: "UDP", TS: ts})
		ts++
		edges = append(edges, stream.Edge{Src: cc, SrcLabel: "ip", Dst: a, DstLabel: "ip", Type: "ICMP", TS: ts})
	}
	noise := datagen.Netflow(datagen.NetflowConfig{Edges: 4000, Hosts: 300, Seed: 8})
	edges = append(edges, noise...)
	c := selectivity.NewCollector()
	c.AddAll(edges)

	q := &query.Graph{}
	v0 := q.AddVertex("a", "ip")
	v1 := q.AddVertex("b", "ip")
	v2 := q.AddVertex("c", "ip")
	q.AddEdge(v0, v1, "TCP")
	q.AddEdge(v1, v2, "UDP")
	q.AddEdge(v2, v0, "ICMP")

	for _, tc := range []struct {
		name   string
		leaves [][]int
	}{
		{"single-edges", [][]int{{0}, {1}, {2}}},
		{"triangle-leaf", [][]int{{0, 1, 2}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var matches int64
			for i := 0; i < b.N; i++ {
				eng, err := core.New(q, core.Config{
					Strategy: core.StrategySingle, Leaves: tc.leaves, Stats: c,
				})
				if err != nil {
					b.Fatal(err)
				}
				matches = 0
				for _, e := range edges {
					matches += int64(len(eng.ProcessEdge(e)))
				}
				if matches == 0 {
					b.Fatal("no triangles found")
				}
				b.ReportMetric(float64(eng.Stats().Tree.PeakStored), "peak-stored")
			}
		})
	}
}

// BenchmarkSnapshotRoundTrip measures checkpointing a loaded engine.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	edges := datagen.Netflow(datagen.NetflowConfig{Edges: 8000, Hosts: 400, Seed: 4})
	c := selectivity.NewCollector()
	c.AddAll(edges)
	q := query.NewPath("ip", "TCP", "UDP", "ICMP")
	eng, err := core.New(q, core.Config{Strategy: core.StrategyPathLazy, Stats: c, Window: 2000})
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range edges {
		eng.ProcessEdge(e)
	}
	var buf bytes.Buffer
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := persist.Save(&buf, eng); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
		if _, err := persist.Load(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "snapshot-bytes")
}

// BenchmarkPredicateEval measures the attribute filter hot path.
func BenchmarkPredicateEval(b *testing.B) {
	p := attr.MustPredicate("proto == TCP && dstPort < 1024 && bytes > 100")
	r := attr.Record{"proto": "TCP", "dstPort": "443", "bytes": "8800"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.Eval(r) {
			b.Fatal("predicate must hold")
		}
	}
}

// BenchmarkIngest measures the raw format readers.
func BenchmarkIngest(b *testing.B) {
	var csvBuf strings.Builder
	csvBuf.WriteString("ts,srcIP,dstIP,proto\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&csvBuf, "%d,10.0.%d.%d,10.1.%d.%d,TCP\n", i, i%250, (i*7)%250, (i*3)%250, (i*11)%250)
	}
	csvData := csvBuf.String()
	var ntBuf strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&ntBuf, "<http://ex/u%d> <http://ex/knows> <http://ex/u%d> .\n", i%500, (i*13)%500)
	}
	ntData := ntBuf.String()

	b.Run("csv", func(b *testing.B) {
		b.SetBytes(int64(len(csvData)))
		for i := 0; i < b.N; i++ {
			src, err := ingest.NewCSVSource(strings.NewReader(csvData), ingest.CSVConfig{Mapper: ingest.NetflowMapper(nil)})
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := src.Next(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("ntriples", func(b *testing.B) {
		b.SetBytes(int64(len(ntData)))
		for i := 0; i < b.N; i++ {
			src := ingest.NewNTriplesSource(strings.NewReader(ntData), ingest.NTriplesConfig{})
			for {
				if _, err := src.Next(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkHistogramRecord measures the latency-histogram hot path.
func BenchmarkHistogramRecord(b *testing.B) {
	var h metrics.Histogram
	for i := 0; i < b.N; i++ {
		h.Record(int64(i % 100000))
	}
	if h.Count() == 0 {
		b.Fatal("no samples")
	}
}

// BenchmarkCountMin measures sketch update and estimate costs.
func BenchmarkCountMin(b *testing.B) {
	b.Run("add-conservative", func(b *testing.B) {
		cm := sketch.NewCountMin(1<<16, 4, 1)
		cm.Conservative = true
		for i := 0; i < b.N; i++ {
			cm.Add(uint64(i%50000), 1)
		}
	})
	b.Run("estimate", func(b *testing.B) {
		cm := sketch.NewCountMin(1<<16, 4, 1)
		for i := 0; i < 50000; i++ {
			cm.Add(uint64(i), 1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cm.Estimate(uint64(i % 50000))
		}
	})
}

// BenchmarkExactOptimizer measures the DP planner itself across query
// sizes (it runs once per registered query, not per edge).
func BenchmarkExactOptimizer(b *testing.B) {
	nf, _, _ := benchDatasets()
	stats := experiments.Collect(nf)
	p := &plan.Planner{Stats: stats, AvgDegree: stats.AvgDegreeEstimate()}
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{4, 6, 8, 10} {
		q := datagen.RandomPathQuery(rng, datagen.NetflowProtocols, size, "ip")
		b.Run(fmt.Sprintf("edges-%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := p.Optimal(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
