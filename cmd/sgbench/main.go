// Command sgbench reproduces the paper's evaluation: every table and
// figure of Section 6 plus the design-choice ablations, printed as
// plain-text tables.
//
// Usage:
//
//	sgbench -exp all  -scale small
//	sgbench -exp fig9a -scale medium -seed 7
//	sgbench -exp batch -cpuprofile cpu.out -memprofile mem.out
//
// Experiments: table1, fig6, fig7, fig9a, fig9b, fig9c, fig9d, fig10,
// rule, alg5, ablation, planner, sketch, batch, shard, dshard,
// persist, migrate, all.
//
// The batch, shard and dshard experiments go beyond the paper: batch
// compares edge-at-a-time ingestion with the batch pipeline (amortized
// eviction) at -batch as the largest batch size; shard compares the
// serial multi-query engine and the sharded runtime (internal/shard) at
// several shard counts, reporting each mode's total replicated edge count —
// the storage the edge-type-partitioned replicas save versus full
// per-shard replication — alongside throughput; dshard compares the
// in-process shard runtime with all-remote and mixed local/remote
// topologies whose slots are loopback-TCP sgshard workers
// (internal/dshard), reporting wire traffic alongside throughput —
// match counts must be identical across every row of every mode;
// persist compares the volatile sharded runtime with the durable one
// (edge log + checkpoint rounds) and times a cold recovery of the
// resulting data directory, reporting the checkpoint overhead and the
// retained log footprint; migrate measures live query migration — the
// same workload with and without a steady churn rotating queries
// across slots (in-process and across a loopback-TCP worker),
// reporting the throughput cost, the per-handoff drain latency and the
// backfill volume, with match counts that must not diverge.
//
// With -json the throughput experiments (batch, shard, dshard,
// persist, migrate) emit one machine-readable JSON document on stdout
// instead of text tables — the format CI archives as BENCH_PR10.json
// to track the perf trajectory across PRs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"streamgraph/internal/experiments"
	"streamgraph/internal/prof"
	"streamgraph/internal/query"
)

// expReport is one experiment's structured rows in -json mode.
type expReport struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	Rows    any    `json:"rows"`
}

// benchReport is the -json document.
type benchReport struct {
	Tool        string      `json:"tool"`
	Scale       string      `json:"scale"`
	Seed        int64       `json:"seed"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	Experiments []expReport `json:"experiments"`
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table1, fig6, fig7, fig9a-d, fig10, rule, alg5, ablation, planner, sketch, batch, shard, dshard, persist, migrate, all)")
		scale    = flag.String("scale", "small", "dataset scale: small | medium | large")
		seed     = flag.Int64("seed", 1, "generator seed")
		batch    = flag.Int("batch", 1024, "largest batch size for the batch ingestion experiment")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON instead of text tables (runs the throughput experiments: batch, shard, dshard, persist)")
		maxEdges = flag.Int("max-edges", 0, "bound the stream length for the batch/shard experiments (0 = whole dataset)")
	)
	profFlags := prof.RegisterFlags()
	flag.Parse()

	if *batch < 2 && (*exp == "batch" || *exp == "all") {
		log.Fatalf("-batch must be >= 2 (got %d): size 1 is the serial baseline, always included", *batch)
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

	if *jsonOut {
		report := benchReport{Tool: "sgbench", Scale: *scale, Seed: *seed, GOMAXPROCS: runtime.GOMAXPROCS(0)}
		nf := getNF()
		if want("batch") {
			sizes := []int{1, 64, *batch}
			if *batch <= 64 {
				sizes = []int{1, *batch}
			}
			rows := experiments.BatchThroughput(experiments.BatchConfig{
				Dataset: nf, Sizes: sizes, MaxEdges: *maxEdges,
			})
			report.Experiments = append(report.Experiments, expReport{ID: "batch", Dataset: nf.Name, Rows: rows})
		}
		if want("shard") {
			rows := experiments.ShardThroughput(experiments.ShardConfig{Dataset: nf, MaxEdges: *maxEdges})
			report.Experiments = append(report.Experiments, expReport{ID: "shard", Dataset: nf.Name, Rows: rows})
		}
		if want("dshard") {
			rows, err := experiments.DshardThroughput(experiments.DshardConfig{Dataset: nf, MaxEdges: *maxEdges})
			if err != nil {
				log.Fatal(err)
			}
			report.Experiments = append(report.Experiments, expReport{ID: "dshard", Dataset: nf.Name, Rows: rows})
		}
		if want("persist") {
			rows, err := experiments.PersistThroughput(experiments.PersistConfig{Dataset: nf, MaxEdges: *maxEdges})
			if err != nil {
				log.Fatal(err)
			}
			report.Experiments = append(report.Experiments, expReport{ID: "persist", Dataset: nf.Name, Rows: rows})
		}
		if want("migrate") {
			rows, err := experiments.MigrateThroughput(experiments.MigrateConfig{Dataset: nf, MaxEdges: *maxEdges})
			if err != nil {
				log.Fatal(err)
			}
			report.Experiments = append(report.Experiments, expReport{ID: "migrate", Dataset: nf.Name, Rows: rows})
		}
		if len(report.Experiments) == 0 {
			log.Fatalf("-json supports the throughput experiments (batch, shard, dshard, persist, migrate); got -exp %s", *exp)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			log.Fatal(err)
		}
		return
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
	if want("batch") {
		sizes := []int{1, 64, *batch}
		if *batch <= 64 {
			sizes = []int{1, *batch}
		}
		nf := getNF()
		rows := experiments.BatchThroughput(experiments.BatchConfig{
			Dataset: nf, Sizes: sizes, MaxEdges: *maxEdges,
		})
		experiments.PrintBatch(out, nf.Name, rows)
		fmt.Fprintln(out)
	}
	if want("shard") {
		nf := getNF()
		rows := experiments.ShardThroughput(experiments.ShardConfig{Dataset: nf, MaxEdges: *maxEdges})
		experiments.PrintShard(out, nf.Name, rows)
		fmt.Fprintln(out)
	}
	if want("dshard") {
		nf := getNF()
		rows, err := experiments.DshardThroughput(experiments.DshardConfig{Dataset: nf, MaxEdges: *maxEdges})
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintDshard(out, nf.Name, rows)
		fmt.Fprintln(out)
	}
	if want("persist") {
		nf := getNF()
		rows, err := experiments.PersistThroughput(experiments.PersistConfig{Dataset: nf, MaxEdges: *maxEdges})
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintPersist(out, nf.Name, rows)
		fmt.Fprintln(out)
	}
	if want("migrate") {
		nf := getNF()
		rows, err := experiments.MigrateThroughput(experiments.MigrateConfig{Dataset: nf, MaxEdges: *maxEdges})
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintMigrate(out, nf.Name, rows)
		fmt.Fprintln(out)
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
