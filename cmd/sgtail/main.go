// Command sgtail runs a continuous query over an edge stream read from
// stdin or a file and prints matches as they complete — the
// tail -f | grep of streaming graphs.
//
// Usage:
//
//	sgtail -query query.sg [-input stream.tsv] [-window N] [-strategy auto]
//	       [-train 0.1] [-batch N] [-snapshot state.snap] [-stats]
//
// The stream format is the engine's TSV:
//
//	src <TAB> srcLabel <TAB> dst <TAB> dstLabel <TAB> type <TAB> ts
//
// With -snapshot, sgtail loads engine state from the file if it exists
// and writes updated state back on EOF, so repeated invocations over
// successive chunks of a log behave like one uninterrupted run.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"streamgraph"
	"streamgraph/internal/prof"
	"streamgraph/internal/stream"
)

func main() {
	var (
		queryPath = flag.String("query", "", "query file (required unless -snapshot exists)")
		inputPath = flag.String("input", "-", "edge stream file, '-' for stdin")
		window    = flag.Int64("window", 0, "time window tW (0 = unwindowed)")
		strategy  = flag.String("strategy", "auto", "single|singlelazy|path|pathlazy|vf2|inciso|auto")
		trainFrac = flag.Float64("train", 0.1, "fraction of the stream buffered to train statistics (ignored with -snapshot restore)")
		batchSize = flag.Int("batch", 1, "edges ingested per batch (1 = edge-at-a-time; larger batches amortize window eviction, with the same matches and search work)")
		snapPath  = flag.String("snapshot", "", "snapshot file to restore from / save to")
		showStats = flag.Bool("stats", false, "print engine counters on exit")
	)
	profFlags := prof.RegisterFlags()
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("sgtail: ")

	in := os.Stdin
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}

	var eng *streamgraph.Engine
	var pending []streamgraph.Edge
	var src *stream.Reader

	if *snapPath != "" {
		if f, err := os.Open(*snapPath); err == nil {
			restored, err := streamgraph.LoadSnapshot(f)
			f.Close()
			if err != nil {
				log.Fatalf("restoring %s: %v", *snapPath, err)
			}
			eng = restored
			fmt.Fprintf(os.Stderr, "sgtail: restored %d partial matches from %s\n",
				restored.Stats().PartialMatches, *snapPath)
		}
	}
	if eng == nil {
		if *queryPath == "" {
			log.Fatal("-query is required (no snapshot to restore)")
		}
		qText, err := os.ReadFile(*queryPath)
		if err != nil {
			log.Fatal(err)
		}
		q, err := streamgraph.ParseQuery(string(qText))
		if err != nil {
			log.Fatal(err)
		}
		strat, err := parseStrategy(*strategy)
		if err != nil {
			log.Fatal(err)
		}
		// Buffer a training prefix to estimate selectivities, unless the
		// strategy needs none.
		r := stream.NewReader(in)
		stats := streamgraph.NewStatistics()
		if needsStats(strat) {
			n := 0
			for {
				e, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					log.Fatal(err)
				}
				pending = append(pending, e)
				stats.Observe(e)
				n++
				if *trainFrac > 0 && n >= trainingTarget(*trainFrac) {
					break
				}
			}
			fmt.Fprintf(os.Stderr, "sgtail: trained on %d edges\n", n)
		}
		eng, err = streamgraph.NewEngine(q, streamgraph.Options{
			Strategy:   strat,
			Window:     *window,
			Statistics: stats,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sgtail: decomposition %s\n", eng.Decomposition())
		// Replay the buffered training prefix through the engine so no
		// matches are lost to training.
		for _, e := range pending {
			report(eng, e)
		}
		pending = nil
		// Continue with the rest of the stream below using the same
		// reader.
		src = r
	}
	if src == nil {
		src = stream.NewReader(in)
	}

	// Start profiling once setup can no longer log.Fatal (os.Exit would
	// skip the deferred flush and truncate the profile); the profile
	// covers the stream loop — the part worth measuring.
	stopProf, err := profFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	drain(src, eng, *batchSize)
	finish(eng, *snapPath, *showStats)
}

func trainingTarget(frac float64) int {
	// stdin has no length; interpret -train as a prefix of
	// frac * 100_000 edges, a pragmatic default for log replays.
	n := int(frac * 100_000)
	if n < 1 {
		n = 1
	}
	return n
}

func drain(r *stream.Reader, eng *streamgraph.Engine, batch int) {
	if batch > 1 {
		if err := stream.EachBatch(r, batch, func(edges []streamgraph.Edge) bool {
			for _, m := range eng.ProcessBatch(edges) {
				fmt.Printf("MATCH %v\n", m)
			}
			return true
		}); err != nil {
			log.Fatal(err)
		}
		return
	}
	for {
		e, err := r.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			log.Fatal(err)
		}
		report(eng, e)
	}
}

func report(eng *streamgraph.Engine, e streamgraph.Edge) {
	for _, m := range eng.Process(e) {
		fmt.Printf("MATCH %v\n", m)
	}
}

func finish(eng *streamgraph.Engine, snapPath string, showStats bool) {
	if snapPath != "" {
		f, err := os.Create(snapPath)
		if err != nil {
			log.Fatal(err)
		}
		flushed, err := streamgraph.SaveSnapshot(f, eng)
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range flushed {
			fmt.Printf("MATCH %v\n", m)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sgtail: snapshot saved to %s\n", snapPath)
	}
	if showStats {
		st := eng.Stats()
		fmt.Fprintf(os.Stderr,
			"sgtail: edges=%d matches=%d searches=%d partial=%d peak=%d\n",
			st.EdgesProcessed, st.CompleteMatches, st.LeafSearches,
			st.PartialMatches, st.PeakPartial)
	}
}

func parseStrategy(s string) (streamgraph.Strategy, error) {
	switch s {
	case "single":
		return streamgraph.Single, nil
	case "singlelazy":
		return streamgraph.SingleLazy, nil
	case "path":
		return streamgraph.Path, nil
	case "pathlazy":
		return streamgraph.PathLazy, nil
	case "vf2":
		return streamgraph.VF2, nil
	case "inciso":
		return streamgraph.IncIso, nil
	case "auto":
		return streamgraph.Auto, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}

func needsStats(s streamgraph.Strategy) bool {
	return s != streamgraph.VF2 && s != streamgraph.IncIso
}
