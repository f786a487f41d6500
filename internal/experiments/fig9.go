package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/datagen"
	"streamgraph/internal/graph"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

// QueryClass selects the query generator for a runtime sweep.
type QueryClass string

const (
	// ClassPath generates simple path queries; Size is the path length.
	ClassPath QueryClass = "path"
	// ClassBinaryTree generates binary tree queries (netflow); Size is
	// the number of vertices.
	ClassBinaryTree QueryClass = "btree"
	// ClassSchemaTree generates schema-conforming n-ary trees
	// (LSBench); Size is the number of edges.
	ClassSchemaTree QueryClass = "stree"
)

// DefaultStrategies are the five strategies plotted in Figure 9.
func DefaultStrategies() []core.Strategy {
	return []core.Strategy{
		core.StrategyPath, core.StrategySingle,
		core.StrategyPathLazy, core.StrategySingleLazy,
		core.StrategyVF2,
	}
}

// SweepConfig parameterizes one Figure 9 panel.
type SweepConfig struct {
	Dataset         Dataset
	Class           QueryClass
	Sizes           []int
	QueriesPerGroup int
	// TrainFraction of the stream feeds the statistics collector before
	// query processing (default 0.2).
	TrainFraction float64
	// Window tW in stream time units (default: a tenth of the stream's
	// timestamp range).
	Window     int64
	Strategies []core.Strategy
	Seed       int64
	// MaxMatchesPerSearch guards against combinatorially exploding
	// unlabeled queries (default 2000 per anchored search).
	MaxMatchesPerSearch int
	// MaxEdges truncates the stream processed by every strategy
	// (0 = full stream). Unlabeled queries over hub-heavy graphs make
	// the non-lazy strategies intrinsically expensive — the paper's own
	// Single/Path runs take 10^3-10^4 seconds — so sweeps bound the
	// processed stream and compare strategies on the same prefix.
	MaxEdges int
	// MaxEdgesVF2 truncates the stream further for the VF2 baseline
	// only (it is orders of magnitude slower still); 0 uses MaxEdges.
	// The reported runtime is scaled back to the sweep's stream length.
	MaxEdgesVF2 int
	// MaxExpectedSelectivity drops pool queries above this Ŝ before
	// sampling. Zero selects the pool's median Ŝ, keeping the more
	// selective half — matching the paper's observed query mix (its
	// Figure 10 samples are overwhelmingly selective) while adapting to
	// query size and dataset.
	MaxExpectedSelectivity float64
}

func (c *SweepConfig) defaults() {
	if c.TrainFraction <= 0 {
		c.TrainFraction = 0.2
	}
	if c.QueriesPerGroup <= 0 {
		c.QueriesPerGroup = 3
	}
	if c.Window <= 0 {
		// The paper's processing window (8M triples of a 23M stream) is
		// a large fraction of the stream; a wide window is what makes
		// tracking-everything strategies pay for their stored partials.
		span := c.Dataset.Edges[len(c.Dataset.Edges)-1].TS - c.Dataset.Edges[0].TS
		c.Window = span/8 + 1
	}
	if c.Strategies == nil {
		c.Strategies = DefaultStrategies()
	}
	if c.MaxMatchesPerSearch <= 0 {
		c.MaxMatchesPerSearch = 500
	}
	if c.MaxEdges <= 0 || c.MaxEdges > len(c.Dataset.Edges) {
		c.MaxEdges = len(c.Dataset.Edges)
	}
}

// RunResult is one (size, strategy) cell of a Figure 9 panel: averages
// over the query group.
type RunResult struct {
	Dataset     string
	Class       QueryClass
	Size        int
	Strategy    core.Strategy
	Queries     int
	AvgSeconds  float64
	Matches     int64
	PeakStored  int64
	IsoSteps    int64
	EdgesPerSec float64
}

// RunSweep executes one Figure 9 panel: for each query size, generate
// (and selectivity-filter) a query group, then process the stream once
// per query per strategy, timing each run.
func RunSweep(cfg SweepConfig) []RunResult {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	stats := CollectPrefix(cfg.Dataset, cfg.TrainFraction)

	var results []RunResult
	for _, size := range cfg.Sizes {
		queries := generateGroup(rng, cfg, size, stats)
		ceiling := cfg.MaxExpectedSelectivity
		if ceiling <= 0 {
			ceiling = datagen.MedianExpectedSelectivity(queries, stats)
		}
		queries = datagen.FilterByMaxExpectedSelectivity(queries, stats, ceiling)
		if len(queries) == 0 {
			continue
		}
		queries = datagen.SampleByExpectedSelectivity(queries, stats, cfg.QueriesPerGroup)
		for _, strat := range cfg.Strategies {
			res := RunResult{
				Dataset: cfg.Dataset.Name, Class: cfg.Class,
				Size: size, Strategy: strat, Queries: len(queries),
			}
			for _, q := range queries {
				one := runOne(q, cfg, strat, stats)
				res.AvgSeconds += one.AvgSeconds
				res.Matches += one.Matches
				res.IsoSteps += one.IsoSteps
				if one.PeakStored > res.PeakStored {
					res.PeakStored = one.PeakStored
				}
			}
			res.AvgSeconds /= float64(len(queries))
			if res.AvgSeconds > 0 {
				res.EdgesPerSec = float64(cfg.MaxEdges) / res.AvgSeconds
			}
			results = append(results, res)
		}
	}
	return results
}

func generateGroup(rng *rand.Rand, cfg SweepConfig, size int, stats *selectivity.Collector) []*query.Graph {
	pool := cfg.QueriesPerGroup * 6
	switch cfg.Class {
	case ClassPath:
		if cfg.Dataset.Schema != nil {
			// Schema-constrained datasets (LSBench) need schema-valid
			// paths; random type sequences almost never occur.
			return datagen.GenerateSchemaPathQueries(rng, cfg.Dataset.Schema, size, pool, stats)
		}
		return datagen.GeneratePathQueries(rng, cfg.Dataset.Types, size, pool, stats)
	case ClassBinaryTree:
		return datagen.GenerateBinaryTreeQueries(rng, cfg.Dataset.Types, size, pool, stats)
	case ClassSchemaTree:
		return datagen.GenerateSchemaTreeQueries(rng, cfg.Dataset.Schema, size, pool, stats)
	default:
		return nil
	}
}

func runOne(q *query.Graph, cfg SweepConfig, strat core.Strategy, stats *selectivity.Collector) RunResult {
	edges := cfg.Dataset.Edges[:cfg.MaxEdges]
	scale := 1.0
	if strat == core.StrategyVF2 && cfg.MaxEdgesVF2 > 0 && cfg.MaxEdgesVF2 < len(edges) {
		scale = float64(len(edges)) / float64(cfg.MaxEdgesVF2)
		edges = edges[:cfg.MaxEdgesVF2]
	}
	eng, err := core.New(q, core.Config{
		Strategy:            strat,
		Window:              cfg.Window,
		Stats:               stats,
		MaxMatchesPerSearch: cfg.MaxMatchesPerSearch,
		MaxWorkPerEdge:      int64(cfg.MaxMatchesPerSearch) * 20,
		MaxStepsPerSearch:   int64(cfg.MaxMatchesPerSearch) * 100,
	})
	if err != nil {
		return RunResult{}
	}
	var matches int64
	start := time.Now()
	for _, se := range edges {
		matches += int64(len(eng.ProcessEdge(se)))
	}
	elapsed := time.Since(start).Seconds() * scale
	st := eng.Stats()
	return RunResult{
		AvgSeconds: elapsed,
		Matches:    matches,
		PeakStored: st.Tree.PeakStored,
		IsoSteps:   st.IsoSteps,
	}
}

// PrintSweep renders a Figure 9 panel as the paper's series: one row
// per (size, strategy) with the average runtime.
func PrintSweep(w io.Writer, title string, rows []RunResult) {
	fmt.Fprintf(w, "== %s ==\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "size\tstrategy\tqueries\tavg_seconds\tmatches\tpeak_stored\tiso_steps")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%v\t%d\t%.4f\t%d\t%d\t%d\n",
			r.Size, r.Strategy, r.Queries, r.AvgSeconds, r.Matches, r.PeakStored, r.IsoSteps)
	}
	tw.Flush()
}

// Speedups extracts, per size, the ratio of every strategy's runtime to
// the best lazy strategy — the 10-100x headline of the paper.
func Speedups(rows []RunResult) map[int]map[string]float64 {
	bestLazy := map[int]float64{}
	for _, r := range rows {
		if r.Strategy == core.StrategySingleLazy || r.Strategy == core.StrategyPathLazy {
			if cur, ok := bestLazy[r.Size]; !ok || r.AvgSeconds < cur {
				bestLazy[r.Size] = r.AvgSeconds
			}
		}
	}
	out := map[int]map[string]float64{}
	for _, r := range rows {
		base := bestLazy[r.Size]
		if base <= 0 {
			continue
		}
		if out[r.Size] == nil {
			out[r.Size] = map[string]float64{}
		}
		out[r.Size][r.Strategy.String()] = r.AvgSeconds / base
	}
	return out
}

// materialize builds a static graph from a stream (used by Algorithm 5
// timing and the oracle experiments).
func materialize(edges []stream.Edge) *graph.Graph {
	g := graph.New()
	for _, e := range edges {
		g.AddEdgeNamed(e.Src, e.SrcLabel, e.Dst, e.DstLabel, e.Type, e.TS)
	}
	return g
}
