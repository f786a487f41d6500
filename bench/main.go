// Command bench is the repository's one benchmark: seven named
// workloads, seven bounded end-to-end metrics plus a failed-operations
// count, and a per-layer time budget measured from outside. README.md
// says what each workload and metric is for; BENCHMARK.json at the
// repository root is the contract the numbers are judged by.
//
//	bash bench/run.sh                                   every workload, tables + bench/out/bench.json
//	bash bench/run.sh -workload nf_rare_lazy -trace 1   one workload, per-layer metrics and span dump
//	bash bench/run.sh compare OLD.json NEW.json         verdict per workload and metric
//	bash bench/run.sh aa                                two runs of the same code, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "aa":
			os.Exit(aaMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// runFlags declares the flags every running mode shares.
func runFlags(fs *flag.FlagSet) (*options, *string, *int) {
	opt := &options{}
	name := fs.String("workload", "all", "workload to run, or all")
	trace := fs.Int("trace", 0, "1 adds the traced passes and reports per-layer metrics instead of end-to-end ones")
	fs.Int64Var(&opt.seed, "seed", 1, "seed every input is generated from (claims must also hold on 7)")
	fs.Float64Var(&opt.seconds, "seconds", 15, "seconds one workload measures for")
	fs.BoolVar(&opt.quick, "quick", false, "test size: 1/100 of every stream, one repetition")
	fs.StringVar(&opt.outDir, "out", filepath.Join("bench", "out"), "directory for the JSON document and span dumps")
	fs.StringVar(&opt.tmpDir, "tmp", filepath.Join(".bench_build", "tmp"), "directory for data dirs of durable routers")
	return opt, name, trace
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	opt, name, trace := runFlags(fs)
	fs.Parse(args)
	opt.trace = *trace != 0
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	doc, err := runAll(*name, *opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := writeDocument(doc, filepath.Join(opt.outDir, "bench.json")); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *name != "all" {
		// The driver reads the last line of standard output.
		fmt.Println(doc.Workloads[0].contractLine())
	}
	for _, w := range doc.Workloads {
		if w.Failed != 0 {
			return 1
		}
	}
	return 0
}

// runAll runs one workload or all of them and prints each as it ends.
func runAll(name string, opt options) (document, error) {
	start := time.Now()
	doc := document{Env: newEnvironment(opt)}
	selected := workloads
	if name != "all" {
		w, ok := findWorkload(name)
		if !ok {
			return doc, fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	noisy := ""
	if doc.Env.Noisy {
		noisy = " (NOISY: load above core count)"
	}
	fmt.Printf("bench: seed %d, scale %s, %g s per workload, GOMAXPROCS %d of %d cores, %s, load %.2f%s\n",
		doc.Env.Seed, doc.Env.Scale, opt.seconds, doc.Env.GOMAXPROCS, doc.Env.NProc, doc.Env.CPUModel,
		doc.Env.LoadStart, noisy)
	for _, w := range selected {
		res, err := runWorkload(w, opt)
		if err != nil {
			return doc, err
		}
		res.print(os.Stdout)
		doc.Workloads = append(doc.Workloads, res)
	}
	doc.derive()
	for _, k := range []string{"lazy_speedup", "shard_speedup"} {
		if v, ok := doc.Derived[k]; ok {
			fmt.Printf("%s = %.3fx (not gated)\n", k, v)
		}
	}
	doc.Env.finish(start)
	fmt.Printf("total %.1f s, load %.2f\n", doc.Env.TotalWallS, doc.Env.LoadEnd)
	return doc, nil
}

func writeDocument(doc document, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
