// Package experiments regenerates every table and figure of the paper's
// evaluation (Choudhury et al., EDBT 2015, Section 6) on the synthetic
// datasets: Table 1 (dataset summary), Figure 6 (edge-type distribution
// over time), Figure 7 (2-edge path distribution), Figure 9a-d (query
// runtime sweeps per strategy), Figure 10 (relative selectivity
// distribution), the Section 6.5 strategy-selection rule accuracy, the
// Section 5.1 Algorithm 5 timing claim, and the Theorem 2 leaf-order
// ablation.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"text/tabwriter"
	"time"

	"streamgraph/internal/datagen"
	"streamgraph/internal/graph"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

// Dataset bundles a generated edge stream with the metadata the query
// generators need.
type Dataset struct {
	Name   string
	Edges  []stream.Edge
	Types  []string         // edge types for unlabeled query generation
	Schema []datagen.Triple // non-nil for schema-driven query generation
}

// Scale sets the generated dataset sizes. The ratios between the three
// datasets mirror Table 1 (netflow and LSBench are orders of magnitude
// larger than New York Times).
type Scale struct {
	NetflowEdges int
	NetflowHosts int
	LSBenchEdges int
	LSBenchUsers int
	NYTArticles  int
}

// ScaleSmall keeps the full experiment suite to seconds; it is the
// default for the sgbench command (-scale small).
var ScaleSmall = Scale{
	NetflowEdges: 30000, NetflowHosts: 4000,
	LSBenchEdges: 30000, LSBenchUsers: 2000,
	NYTArticles: 2500,
}

// ScaleMedium is about seven times ScaleSmall (sgbench -scale medium).
var ScaleMedium = Scale{
	NetflowEdges: 200000, NetflowHosts: 20000,
	LSBenchEdges: 200000, LSBenchUsers: 10000,
	NYTArticles: 15000,
}

// ScaleLarge approaches the paper's stream lengths where laptop memory
// allows.
var ScaleLarge = Scale{
	NetflowEdges: 2000000, NetflowHosts: 100000,
	LSBenchEdges: 2000000, LSBenchUsers: 50000,
	NYTArticles: 60000,
}

// NetflowDataset generates the CAIDA substitute at the given scale.
func NetflowDataset(s Scale, seed int64) Dataset {
	return Dataset{
		Name:  "Netflow",
		Edges: datagen.Netflow(datagen.NetflowConfig{Seed: seed, Edges: s.NetflowEdges, Hosts: s.NetflowHosts}),
		Types: datagen.NetflowProtocols,
	}
}

// LSBenchDataset generates the LSBench substitute at the given scale.
func LSBenchDataset(s Scale, seed int64) Dataset {
	return Dataset{
		Name:   "LSBench",
		Edges:  datagen.LSBench(datagen.LSBenchConfig{Seed: seed, Edges: s.LSBenchEdges, Users: s.LSBenchUsers}),
		Types:  lsbenchTypes(),
		Schema: datagen.LSBenchSchema(),
	}
}

// NYTimesDataset generates the New York Times substitute.
func NYTimesDataset(s Scale, seed int64) Dataset {
	return Dataset{
		Name:  "NYTimes",
		Edges: datagen.NYTimes(datagen.NYTimesConfig{Seed: seed, Articles: s.NYTArticles}),
		Types: datagen.NYTimesTypes,
	}
}

func lsbenchTypes() []string {
	var out []string
	for _, tr := range datagen.LSBenchSchema() {
		out = append(out, tr.Type)
	}
	return out
}

// Collect folds a dataset's edges into a fresh statistics collector.
func Collect(ds Dataset) *selectivity.Collector {
	c := selectivity.NewCollector()
	c.AddAll(ds.Edges)
	return c
}

// CollectPrefix folds only the leading fraction of the stream — the
// paper's "initial set of edges" used to estimate selectivities before
// query processing begins (Section 5.1).
func CollectPrefix(ds Dataset, fraction float64) *selectivity.Collector {
	c := selectivity.NewCollector()
	n := int(float64(len(ds.Edges)) * fraction)
	if n < 1 {
		n = len(ds.Edges)
	}
	c.AddAll(ds.Edges[:n])
	return c
}

// --- Table 1 ------------------------------------------------------------

// Table1Row summarizes one dataset.
type Table1Row struct {
	Dataset  string
	Kind     string
	Vertices int
	Edges    int
	Types    int
}

// Table1 reproduces the dataset summary table.
func Table1(datasets []Dataset) []Table1Row {
	kind := map[string]string{
		"Netflow": "Network traffic", "LSBench": "RDF Stream", "NYTimes": "Online News",
	}
	var rows []Table1Row
	for _, ds := range datasets {
		verts := make(map[string]struct{})
		types := make(map[string]struct{})
		for _, e := range ds.Edges {
			verts[e.Src] = struct{}{}
			verts[e.Dst] = struct{}{}
			types[e.Type] = struct{}{}
		}
		rows = append(rows, Table1Row{
			Dataset: ds.Name, Kind: kind[ds.Name],
			Vertices: len(verts), Edges: len(ds.Edges), Types: len(types),
		})
	}
	return rows
}

// PrintTable1 renders Table 1 rows.
func PrintTable1(w io.Writer, rows []Table1Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tType\tVertices\tEdges\tEdgeTypes")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\n", r.Dataset, r.Kind, r.Vertices, r.Edges, r.Types)
	}
	tw.Flush()
}

// --- Figure 6 -----------------------------------------------------------

// IntervalCount is one (interval, edge type) cell of Figure 6: the
// non-cumulative count of that type within the interval.
type IntervalCount struct {
	Interval int
	Type     string
	Count    int64
}

// Figure6 splits the stream into the given number of equal intervals
// and reports the per-interval edge-type histogram — the data behind
// the "edge distribution over time" plots.
func Figure6(ds Dataset, intervals int) []IntervalCount {
	if intervals <= 0 {
		intervals = 10
	}
	per := (len(ds.Edges) + intervals - 1) / intervals
	var out []IntervalCount
	for i := 0; i < intervals; i++ {
		lo := i * per
		hi := lo + per
		if lo >= len(ds.Edges) {
			break
		}
		if hi > len(ds.Edges) {
			hi = len(ds.Edges)
		}
		counts := map[string]int64{}
		for _, e := range ds.Edges[lo:hi] {
			counts[e.Type]++
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = append(out, IntervalCount{Interval: i, Type: k, Count: counts[k]})
		}
	}
	return out
}

// Figure6RankStability reports, for each pair of consecutive intervals,
// whether the frequency rank order of the edge types stayed identical —
// the paper's key observation that "the relative order of different
// types of edges stays similar even as the graph evolves". Types with
// fewer than minCount occurrences in an interval are ignored (the noisy
// left tail the paper also excludes).
func Figure6RankStability(cells []IntervalCount, minCount int64) (stable, total int) {
	byInterval := map[int]map[string]int64{}
	maxI := 0
	for _, c := range cells {
		if byInterval[c.Interval] == nil {
			byInterval[c.Interval] = map[string]int64{}
		}
		byInterval[c.Interval][c.Type] = c.Count
		if c.Interval > maxI {
			maxI = c.Interval
		}
	}
	rank := func(m, other map[string]int64) []string {
		var keys []string
		for k, v := range m {
			// Only types above the noise floor in BOTH intervals take
			// part in the comparison; the paper observes fluctuations
			// "for the very low frequency components" and excludes them.
			if v >= minCount && other[k] >= minCount {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if m[keys[i]] != m[keys[j]] {
				return m[keys[i]] > m[keys[j]]
			}
			return keys[i] < keys[j]
		})
		return keys
	}
	for i := 1; i <= maxI; i++ {
		a := rank(byInterval[i-1], byInterval[i])
		b := rank(byInterval[i], byInterval[i-1])
		total++
		if equalSlices(a, b) {
			stable++
		}
	}
	return stable, total
}

func equalSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PrintFigure6 renders the interval histogram.
func PrintFigure6(w io.Writer, name string, cells []IntervalCount) {
	fmt.Fprintf(w, "== Figure 6: edge type distribution over time (%s) ==\n", name)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "interval\ttype\tcount")
	for _, c := range cells {
		fmt.Fprintf(tw, "%d\t%s\t%d\n", c.Interval, c.Type, c.Count)
	}
	tw.Flush()
}

// --- Figure 7 -----------------------------------------------------------

// Figure7Result is the 2-edge path distribution of one dataset.
type Figure7Result struct {
	Dataset      string
	UniqueShapes int
	Histogram    []selectivity.HistogramEntry // sorted by descending count
	SkewRatio    float64                      // top shape count / median shape count
}

// Figure7 computes the 2-edge path distribution (Algorithm 5 output)
// for a dataset.
func Figure7(ds Dataset) Figure7Result {
	c := Collect(ds)
	h := c.PathHistogram()
	res := Figure7Result{Dataset: ds.Name, UniqueShapes: c.UniquePathShapes(), Histogram: h}
	if len(h) > 0 {
		med := h[len(h)/2].Count
		if med > 0 {
			res.SkewRatio = float64(h[0].Count) / float64(med)
		} else {
			res.SkewRatio = math.Inf(1)
		}
	}
	return res
}

// PrintFigure7 renders the ranked distribution (top entries and the
// tail) in the log-scale spirit of the paper's plot.
func PrintFigure7(w io.Writer, r Figure7Result, top int) {
	fmt.Fprintf(w, "== Figure 7: 2-edge path distribution (%s): %d unique shapes, skew(top/median)=%.1f ==\n",
		r.Dataset, r.UniqueShapes, r.SkewRatio)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\tshape\tcount")
	for i, e := range r.Histogram {
		if i >= top && i < len(r.Histogram)-3 {
			if i == top {
				fmt.Fprintln(tw, "...\t...\t...")
			}
			continue
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\n", i+1, e.Key, e.Count)
	}
	tw.Flush()
}

// --- Algorithm 5 timing (Section 5.1) ------------------------------------

// Alg5Timing reports the batch 2-edge path statistics throughput.
type Alg5Timing struct {
	Edges        int
	Vertices     int
	Elapsed      time.Duration
	EdgesPerSec  float64
	UniqueShapes int
}

// TimeAlgorithm5 materializes the dataset as a graph and times the
// batch Algorithm 5 run (the paper reports ~50s for 130M edges).
func TimeAlgorithm5(ds Dataset) Alg5Timing {
	g := materialize(ds.Edges)
	start := time.Now()
	c := selectivity.FromGraph(g.ViewTypes(graph.UniversalTypes()), math.MinInt64)
	elapsed := time.Since(start)
	return Alg5Timing{
		Edges:        g.NumEdges(),
		Vertices:     g.LiveVertices(),
		Elapsed:      elapsed,
		EdgesPerSec:  float64(g.NumEdges()) / elapsed.Seconds(),
		UniqueShapes: c.UniquePathShapes(),
	}
}

// sanity helper shared by experiments.
var _ = rand.Int
