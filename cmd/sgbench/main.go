// Command sgbench reproduces the paper's evaluation: every table and
// figure of Section 6 plus the design-choice ablations, printed as
// plain-text tables.
//
// Usage:
//
//	sgbench -exp all  -scale small
//	sgbench -exp fig9a -scale medium -seed 7
//	sgbench -exp fig9b -cpuprofile cpu.out -memprofile mem.out
//
// Experiments: table1, fig6, fig7, fig9a, fig9b, fig9c, fig9d, fig10,
// rule, alg5, ablation, planner, sketch, all. An unknown -exp exits
// with status 2 and lists these. The runtime's throughput, latency
// and memory are measured by the bench/ module, not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"streamgraph/internal/experiments"
	"streamgraph/internal/prof"
	"streamgraph/internal/query"
)

// experimentIDs lists every -exp value but "all", in the order "all"
// runs them.
var experimentIDs = []string{
	"table1", "fig6", "fig7", "fig9a", "fig9b", "fig9c", "fig9d", "fig10",
	"rule", "alg5", "ablation", "planner", "sketch",
}

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id ("+strings.Join(experimentIDs, ", ")+", all)")
		scale = flag.String("scale", "small", "dataset scale: small | medium | large")
		seed  = flag.Int64("seed", 1, "generator seed")
	)
	profFlags := prof.RegisterFlags()
	flag.Parse()

	if *exp != "all" && !slices.Contains(experimentIDs, *exp) {
		fmt.Fprintf(os.Stderr, "sgbench: unknown experiment %q; valid ids: %s, all\n", *exp, strings.Join(experimentIDs, ", "))
		os.Exit(2)
	}

	var sc experiments.Scale
	switch *scale {
	case "small":
		sc = experiments.ScaleSmall
	case "medium":
		sc = experiments.ScaleMedium
	case "large":
		sc = experiments.ScaleLarge
	default:
		log.Fatalf("unknown scale %q", *scale)
	}

	// Start profiling only once the flag validation cannot log.Fatal
	// anymore (os.Exit would skip the deferred flush and leave a
	// truncated profile).
	stopProf, err := profFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	want := func(id string) bool { return *exp == "all" || *exp == id }
	out := os.Stdout

	var (
		netflow, lsbench, nyt   experiments.Dataset
		haveNF, haveLS, haveNYT bool
	)
	getNF := func() experiments.Dataset {
		if !haveNF {
			netflow, haveNF = experiments.NetflowDataset(sc, *seed), true
		}
		return netflow
	}
	getLS := func() experiments.Dataset {
		if !haveLS {
			lsbench, haveLS = experiments.LSBenchDataset(sc, *seed+1), true
		}
		return lsbench
	}
	getNYT := func() experiments.Dataset {
		if !haveNYT {
			nyt, haveNYT = experiments.NYTimesDataset(sc, *seed+2), true
		}
		return nyt
	}

	if want("table1") {
		fmt.Fprintln(out, "== Table 1: dataset summary ==")
		experiments.PrintTable1(out, experiments.Table1([]experiments.Dataset{getNF(), getLS(), getNYT()}))
		fmt.Fprintln(out)
	}
	if want("fig6") {
		for _, ds := range []experiments.Dataset{getNYT(), getNF(), getLS()} {
			cells := experiments.Figure6(ds, 10)
			experiments.PrintFigure6(out, ds.Name, cells)
			stable, total := experiments.Figure6RankStability(cells, 25)
			fmt.Fprintf(out, "rank stability (noise floor 25): %d/%d interval transitions\n\n", stable, total)
		}
	}
	if want("fig7") {
		for _, ds := range []experiments.Dataset{getNYT(), getNF(), getLS()} {
			experiments.PrintFigure7(out, experiments.Figure7(ds), 15)
			fmt.Fprintln(out)
		}
	}
	if want("fig9a") {
		rows := experiments.RunSweep(experiments.SweepConfig{
			Dataset: getNF(), Class: experiments.ClassPath,
			Sizes: []int{3, 4, 5}, Seed: *seed + 10,
			MaxEdges: sc.NetflowEdges / 5, MaxEdgesVF2: sc.NetflowEdges / 15,
		})
		experiments.PrintSweep(out, "Figure 9a: path queries on Netflow", rows)
		printSpeedups(rows)
	}
	if want("fig9b") {
		rows := experiments.RunSweep(experiments.SweepConfig{
			Dataset: getNF(), Class: experiments.ClassBinaryTree,
			Sizes: []int{5, 7, 9, 11, 13, 15}, Seed: *seed + 11,
			MaxEdges: sc.NetflowEdges / 5, MaxEdgesVF2: sc.NetflowEdges / 15,
		})
		experiments.PrintSweep(out, "Figure 9b: binary tree queries on Netflow", rows)
		printSpeedups(rows)
	}
	if want("fig9c") {
		rows := experiments.RunSweep(experiments.SweepConfig{
			Dataset: getLS(), Class: experiments.ClassPath,
			Sizes: []int{3, 4, 5}, Seed: *seed + 12,
			MaxEdges: sc.LSBenchEdges / 5, MaxEdgesVF2: sc.LSBenchEdges / 15,
		})
		experiments.PrintSweep(out, "Figure 9c: path queries on LSBench", rows)
		printSpeedups(rows)
	}
	if want("fig9d") {
		rows := experiments.RunSweep(experiments.SweepConfig{
			Dataset: getLS(), Class: experiments.ClassSchemaTree,
			Sizes: []int{3, 4, 5, 6, 7, 8}, Seed: *seed + 13,
			MaxEdges: sc.LSBenchEdges / 5, MaxEdgesVF2: sc.LSBenchEdges / 15,
		})
		experiments.PrintSweep(out, "Figure 9d: tree queries on LSBench", rows)
		printSpeedups(rows)
	}
	if want("fig10") {
		samples := experiments.Figure10(
			[]experiments.Dataset{getNYT(), getNF(), getLS()}, 25, *seed+14)
		experiments.PrintFigure10(out, experiments.HistogramXi(samples))
		fmt.Fprintln(out)
	}
	if want("rule") {
		var rows []experiments.RuleResult
		rows = append(rows, experiments.RuleExperiment(getNF(), 4, 5, *seed+15)...)
		rows = append(rows, experiments.RuleExperiment(getLS(), 4, 5, *seed+16)...)
		experiments.PrintRule(out, rows)
		fmt.Fprintln(out)
	}
	if want("alg5") {
		r := experiments.TimeAlgorithm5(getNF())
		fmt.Fprintf(out, "== Section 5.1: Algorithm 5 timing ==\n%d edges, %d vertices: %v (%.0f edges/s), %d unique shapes\n\n",
			r.Edges, r.Vertices, r.Elapsed, r.EdgesPerSec, r.UniqueShapes)
	}
	if want("ablation") {
		q := query.NewPath(query.Wildcard, "GRE", "TCP", "TCP")
		rows, err := experiments.LeafOrderAblation(getNF(), q, *seed+17)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintAblation(out, rows)
		fmt.Fprintln(out)
	}
	if want("planner") {
		q := query.NewPath("ip", "TCP", "ESP", "UDP", "TCP", "ICMP")
		rows, err := experiments.PlannerAblation(getNF(), q, 0.4)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintPlannerAblation(out, q, rows)
		fmt.Fprintln(out)
	}
	if want("sketch") {
		for _, ds := range []experiments.Dataset{getNF(), getLS()} {
			experiments.PrintSketchReport(out, experiments.SketchAccuracy(ds, 1<<16, 4, 10))
			fmt.Fprintln(out)
		}
	}
}

func printSpeedups(rows []experiments.RunResult) {
	sp := experiments.Speedups(rows)
	var sizes []int
	for s := range sp {
		sizes = append(sizes, s)
	}
	for i := 0; i < len(sizes); i++ {
		for j := i + 1; j < len(sizes); j++ {
			if sizes[j] < sizes[i] {
				sizes[i], sizes[j] = sizes[j], sizes[i]
			}
		}
	}
	var b strings.Builder
	for _, s := range sizes {
		fmt.Fprintf(&b, "  size %d:", s)
		if v, ok := sp[s]["VF2"]; ok {
			fmt.Fprintf(&b, " VF2/bestLazy=%.1fx", v)
		}
		if v, ok := sp[s]["Single"]; ok {
			fmt.Fprintf(&b, " Single/bestLazy=%.1fx", v)
		}
		if v, ok := sp[s]["Path"]; ok {
			fmt.Fprintf(&b, " Path/bestLazy=%.1fx", v)
		}
		b.WriteString("\n")
	}
	fmt.Printf("speedups:\n%s\n", b.String())
}
