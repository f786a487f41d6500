// Command sgquery performs the paper's query-processing step: it loads
// either a precomputed SJ-Tree decomposition (from sgdecompose) or a
// raw query plus a statistics sample, initializes the continuous query
// engine, and streams an edge file through it, printing matches as they
// complete.
//
// Usage:
//
//	sgquery -tree q.sjtree -in netflow.tsv -strategy PathLazy
//	sgquery -query q.txt -stats sample.tsv -in netflow.tsv -strategy Auto -window 5000
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/decompose"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

var strategies = map[string]core.Strategy{
	"Single": core.StrategySingle, "SingleLazy": core.StrategySingleLazy,
	"Path": core.StrategyPath, "PathLazy": core.StrategyPathLazy,
	"VF2": core.StrategyVF2, "IncIso": core.StrategyIncIso, "Auto": core.StrategyAuto,
}

func main() {
	var (
		treeFile  = flag.String("tree", "", "SJ-Tree file from sgdecompose")
		queryFile = flag.String("query", "", "query graph file (alternative to -tree)")
		statsFile = flag.String("stats", "", "stream sample for decomposition (with -query)")
		in        = flag.String("in", "", "input stream file (default stdin)")
		strategy  = flag.String("strategy", "Auto", "Single | SingleLazy | Path | PathLazy | VF2 | IncIso | Auto")
		window    = flag.Int64("window", 0, "time window tW (overrides the tree file's)")
		maxPrint  = flag.Int("print", 20, "matches to print (all are counted)")
		cap       = flag.Int("cap", 100000, "max matches per anchored search (0 = unlimited)")
	)
	flag.Parse()

	strat, ok := strategies[*strategy]
	if !ok {
		log.Fatalf("unknown strategy %q", *strategy)
	}

	cfg := core.Config{Strategy: strat, Window: *window, MaxMatchesPerSearch: *cap}
	var q *query.Graph
	switch {
	case *treeFile != "":
		text, err := os.ReadFile(*treeFile)
		if err != nil {
			log.Fatal(err)
		}
		var leaves [][]int
		var w int64
		q, leaves, w, err = decompose.ParseFile(string(text))
		if err != nil {
			log.Fatal(err)
		}
		cfg.Leaves = leaves
		if *window == 0 {
			cfg.Window = w
		}
	case *queryFile != "":
		text, err := os.ReadFile(*queryFile)
		if err != nil {
			log.Fatal(err)
		}
		q, err = query.Parse(string(text))
		if err != nil {
			log.Fatal(err)
		}
		if *statsFile != "" {
			f, err := os.Open(*statsFile)
			if err != nil {
				log.Fatal(err)
			}
			edges, err := stream.ReadAll(stream.NewReader(f))
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			c := selectivity.NewCollector()
			c.AddAll(edges)
			cfg.Stats = c
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	eng, err := core.New(q, cfg)
	if err != nil {
		log.Fatal(err)
	}

	r := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}

	src := stream.NewReader(r)
	var total, printed int64
	start := time.Now()
	for {
		se, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range eng.ProcessEdge(se) {
			total++
			if printed < int64(*maxPrint) {
				printed++
				fmt.Printf("MATCH @%d: %s\n", se.TS, explain(eng, m))
			}
		}
	}
	elapsed := time.Since(start)
	st := eng.Stats()
	fmt.Printf("\n%d matches, %d edges in %.3fs (%.0f edges/s)\n",
		total, st.EdgesProcessed, elapsed.Seconds(), float64(st.EdgesProcessed)/elapsed.Seconds())
	fmt.Printf("leaf searches: %d, retro searches: %d, iso steps: %d, peak partial matches: %d\n",
		st.LeafSearches, st.RetroSearches, st.IsoSteps, st.Tree.PeakStored)
	// The engine stores only the edges whose type the query holds, so
	// the graph is the window's slice of the stream the query can match.
	fmt.Printf("edges: %d offered, %d stored (types the query can match)\n",
		st.EdgesProcessed, eng.Graph().LastSeq())
	fmt.Printf("graph: %v, %d vertex slots, %d reclaimed by window sweeps\n",
		eng.Graph(), eng.Graph().NumVertices(), st.VerticesReclaimed)
}

func explain(e *core.Engine, m iso.Match) string {
	s := e.Explain(m)
	g := e.Graph()
	for qe, eid := range m.EdgeOf {
		if de, ok := g.Edge(eid); ok {
			s += fmt.Sprintf(" [e%d %s->%s %s@%d]", qe,
				g.VertexName(de.Src), g.VertexName(de.Dst),
				g.Types().Name(uint32(de.Type)), de.TS)
		}
	}
	return s
}
