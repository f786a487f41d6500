// Benchmarks regenerating every table and figure of the paper's
// evaluation (internal/experiments), plus micro-benchmarks of the hot
// paths. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks execute a scaled-down sweep per iteration and
// report the paper's headline quantities as custom metrics; sgbench
// runs the same experiments at larger scales. These are per-layer
// go benchmarks: end-to-end throughput, latency and memory are
// measured by the bench/ module, and the reference match counts are
// pinned by TestReferenceWorkloadBatch (internal/core) and
// TestReferenceWorkloadTopologies (internal/shard).
package streamgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/datagen"
	"streamgraph/internal/experiments"
	"streamgraph/internal/graph"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

// benchScale keeps each figure benchmark iteration under a few seconds.
var benchScale = experiments.Scale{
	NetflowEdges: 12000, NetflowHosts: 2500,
	LSBenchEdges: 12000, LSBenchUsers: 1200,
	NYTArticles: 1200,
}

var (
	benchOnce sync.Once
	benchNF   experiments.Dataset
	benchLS   experiments.Dataset
	benchNYT  experiments.Dataset
)

func benchDatasets() (experiments.Dataset, experiments.Dataset, experiments.Dataset) {
	benchOnce.Do(func() {
		benchNF = experiments.NetflowDataset(benchScale, 1)
		benchLS = experiments.LSBenchDataset(benchScale, 2)
		benchNYT = experiments.NYTimesDataset(benchScale, 3)
	})
	return benchNF, benchLS, benchNYT
}

// BenchmarkTable1 regenerates the dataset summary (Table 1).
func BenchmarkTable1(b *testing.B) {
	nf, ls, nyt := benchDatasets()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1([]experiments.Dataset{nf, ls, nyt})
		if len(rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFigure6 regenerates the edge-type-over-time histograms for
// all three datasets (Figure 6a-c).
func BenchmarkFigure6(b *testing.B) {
	nf, ls, nyt := benchDatasets()
	for i := 0; i < b.N; i++ {
		for _, ds := range []experiments.Dataset{nyt, nf, ls} {
			if cells := experiments.Figure6(ds, 10); len(cells) == 0 {
				b.Fatal("no cells")
			}
		}
	}
}

// BenchmarkFigure7 regenerates the 2-edge path distributions (Figure 7)
// and reports the netflow skew.
func BenchmarkFigure7(b *testing.B) {
	nf, ls, nyt := benchDatasets()
	var skew float64
	for i := 0; i < b.N; i++ {
		for _, ds := range []experiments.Dataset{nyt, nf, ls} {
			r := experiments.Figure7(ds)
			if ds.Name == "Netflow" {
				skew = r.SkewRatio
			}
		}
	}
	b.ReportMetric(skew, "netflow-skew")
}

func sweepBench(b *testing.B, ds experiments.Dataset, class experiments.QueryClass, sizes []int, seed int64) {
	cfg := experiments.SweepConfig{
		Dataset: ds, Class: class, Sizes: sizes,
		QueriesPerGroup: 2, Seed: seed,
		MaxEdges: len(ds.Edges) / 2, MaxEdgesVF2: len(ds.Edges) / 8,
	}
	var rows []experiments.RunResult
	for i := 0; i < b.N; i++ {
		rows = experiments.RunSweep(cfg)
	}
	// Report the headline ratio: baseline / best lazy at the largest size.
	sp := experiments.Speedups(rows)
	if m, ok := sp[sizes[len(sizes)-1]]; ok {
		if v, ok := m["VF2"]; ok {
			b.ReportMetric(v, "vf2-over-lazy")
		}
		if v, ok := m["Single"]; ok {
			b.ReportMetric(v, "single-over-lazy")
		}
	}
}

// BenchmarkFigure9a: path queries on the netflow stream.
func BenchmarkFigure9a(b *testing.B) {
	nf, _, _ := benchDatasets()
	sweepBench(b, nf, experiments.ClassPath, []int{3, 4}, 10)
}

// BenchmarkFigure9b: binary tree queries on the netflow stream.
func BenchmarkFigure9b(b *testing.B) {
	nf, _, _ := benchDatasets()
	sweepBench(b, nf, experiments.ClassBinaryTree, []int{5, 7}, 11)
}

// BenchmarkFigure9c: path queries on the LSBench stream.
func BenchmarkFigure9c(b *testing.B) {
	_, ls, _ := benchDatasets()
	sweepBench(b, ls, experiments.ClassPath, []int{3, 4}, 12)
}

// BenchmarkFigure9d: schema tree queries on the LSBench stream.
func BenchmarkFigure9d(b *testing.B) {
	_, ls, _ := benchDatasets()
	sweepBench(b, ls, experiments.ClassSchemaTree, []int{3, 5}, 13)
}

// BenchmarkFigure10 regenerates the relative-selectivity distribution.
func BenchmarkFigure10(b *testing.B) {
	nf, ls, nyt := benchDatasets()
	var n int
	for i := 0; i < b.N; i++ {
		samples := experiments.Figure10([]experiments.Dataset{nyt, nf, ls}, 10, 14)
		n = len(samples)
	}
	b.ReportMetric(float64(n), "xi-samples")
}

// BenchmarkAlgorithm5 times the batch 2-edge path statistics
// (Section 5.1's "50 seconds for 130M edges" claim — we report
// edges/second).
func BenchmarkAlgorithm5(b *testing.B) {
	nf, _, _ := benchDatasets()
	var eps float64
	for i := 0; i < b.N; i++ {
		r := experiments.TimeAlgorithm5(nf)
		eps = r.EdgesPerSec
	}
	b.ReportMetric(eps, "edges/s")
}

// BenchmarkLeafOrderAblation compares peak partial-match storage across
// SJ-Tree leaf orders (Theorem 2).
func BenchmarkLeafOrderAblation(b *testing.B) {
	nf, _, _ := benchDatasets()
	q := query.NewPath(query.Wildcard, "GRE", "TCP", "TCP")
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.LeafOrderAblation(nf, q, 17)
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string]int64{}
		for _, r := range rows {
			byName[r.Order] = r.PeakStored
		}
		if a := byName["ascending-selectivity"]; a > 0 {
			ratio = float64(byName["descending-selectivity"]) / float64(a)
		}
	}
	b.ReportMetric(ratio, "desc-over-asc-storage")
}

// --- Micro-benchmarks of the hot paths ----------------------------------

// BenchmarkEngineProcessEdge measures steady-state stream throughput
// for each strategy on a 3-hop netflow path query.
func BenchmarkEngineProcessEdge(b *testing.B) {
	nf, _, _ := benchDatasets()
	stats := experiments.CollectPrefix(nf, 0.2)
	q := query.NewPath(query.Wildcard, "UDP", "ICMP", "GRE")
	for _, strat := range []core.Strategy{
		core.StrategySingle, core.StrategySingleLazy,
		core.StrategyPath, core.StrategyPathLazy, core.StrategyIncIso,
	} {
		b.Run(strat.String(), func(b *testing.B) {
			eng, err := core.New(q, core.Config{
				Strategy: strat, Window: 2000, Stats: stats,
				MaxMatchesPerSearch: 20000,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ProcessEdge(nf.Edges[i%len(nf.Edges)])
			}
		})
	}
}

// cyclicStream returns n edges by repeating base with timestamps
// shifted so the stream stays monotonic across repetitions.
func cyclicStream(base []stream.Edge, n int) []stream.Edge {
	out := make([]stream.Edge, n)
	span := base[len(base)-1].TS + 1
	for i := range out {
		e := base[i%len(base)]
		e.TS += span * int64(i/len(base))
		out[i] = e
	}
	return out
}

// BenchmarkProcessBatch measures the batch ingestion pipeline against
// the serial loop: the same netflow stream is driven through each
// strategy at batch sizes 1, 64 and 1024. batch=1 uses ProcessEdge (the
// serial baseline); larger batches amortize eviction. Match sets are
// identical across rows (the differential tests enforce it), so edges/s
// isolates the ingestion mechanics.
func BenchmarkProcessBatch(b *testing.B) {
	nf, _, _ := benchDatasets()
	stats := experiments.CollectPrefix(nf, 0.2)
	q := query.NewPath(query.Wildcard, "UDP", "ICMP", "GRE")
	for _, strat := range []core.Strategy{
		core.StrategySingle, core.StrategySingleLazy,
		core.StrategyPath, core.StrategyPathLazy,
	} {
		for _, batch := range []int{1, 64, 1024} {
			b.Run(fmt.Sprintf("%s/batch=%d", strat, batch), func(b *testing.B) {
				eng, err := core.New(q, core.Config{
					Strategy: strat, Window: 2000, Stats: stats,
					MaxMatchesPerSearch: 20000,
				})
				if err != nil {
					b.Fatal(err)
				}
				edges := cyclicStream(nf.Edges, b.N)
				var matches int64
				b.ReportAllocs()
				b.ResetTimer()
				if batch == 1 {
					for _, se := range edges {
						matches += int64(len(eng.ProcessEdge(se)))
					}
				} else {
					for chunk := range slices.Chunk(edges, batch) {
						for _, ms := range eng.ProcessBatch(chunk) {
							matches += int64(len(ms))
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "edges/s")
				b.ReportMetric(float64(matches), "matches")
			})
		}
	}
}

// BenchmarkGraphAddEdge measures raw graph mutation throughput.
func BenchmarkGraphAddEdge(b *testing.B) {
	nf, _, _ := benchDatasets()
	b.Run("add", func(b *testing.B) {
		g := graph.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := nf.Edges[i%len(nf.Edges)]
			g.AddEdgeNamed(e.Src, e.SrcLabel, e.Dst, e.DstLabel, e.Type, e.TS)
		}
	})
	b.Run("add-expire", func(b *testing.B) {
		g := graph.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := nf.Edges[i%len(nf.Edges)]
			g.AddEdgeNamed(e.Src, e.SrcLabel, e.Dst, e.DstLabel, e.Type, int64(i))
			if i%256 == 0 {
				g.ExpireBefore(int64(i) - 2000)
			}
		}
	})
}

// BenchmarkCollectorAdd measures the incremental Algorithm 5 update.
func BenchmarkCollectorAdd(b *testing.B) {
	nf, _, _ := benchDatasets()
	c := selectivity.NewCollector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(nf.Edges[i%len(nf.Edges)])
	}
}

// BenchmarkQueryGeneration measures the filtered query generators used
// by the sweeps.
func BenchmarkQueryGeneration(b *testing.B) {
	nf, ls, _ := benchDatasets()
	statsNF := experiments.Collect(nf)
	statsLS := experiments.Collect(ls)
	rng := rand.New(rand.NewSource(9))
	b.Run("netflow-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			datagen.GeneratePathQueries(rng, nf.Types, 4, 5, statsNF)
		}
	})
	b.Run("lsbench-stree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			datagen.GenerateSchemaTreeQueries(rng, ls.Schema, 4, 5, statsLS)
		}
	})
}
