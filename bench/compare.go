package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// spec is BENCHMARK.json: the contract the driver checks, and the one
// place the regression bounds live.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// The four verdicts of a comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// verdict judges new against old for one metric. The bound is the
// relative worsening of the value that counts as a regression. When
// either side's own spread (IQR/median over its repetitions) is wider
// than the bound, a difference of that size cannot be told from noise
// and the pair is unresolved, never unchanged.
func verdict(m specMetric, old, new metric) string {
	if old.Spread > m.Bound || new.Spread > m.Bound {
		return verdictUnresolved
	}
	if old.Value == 0 {
		return verdictUnresolved
	}
	change := (new.Value - old.Value) / old.Value // > 0: the figure grew
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return verdictWorse
	case change < -m.Bound:
		return verdictBetter
	default:
		return verdictWithin
	}
}

// compareDocuments prints one row per workload and end-to-end metric
// present in both documents and returns how many pairs got each
// verdict. A workload's failed operations are a regression whatever its
// timings say.
func compareDocuments(w io.Writer, s spec, old, new document) map[string]int {
	tally := make(map[string]int)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tnew/old\tbound\told spread\tnew spread\tverdict")
	for _, nw := range new.Workloads {
		ow, ok := old.workload(nw.Workload)
		if !ok {
			continue
		}
		for _, m := range s.EndToEnd {
			om, ok1 := ow.metric(m.Name)
			nm, ok2 := nw.metric(m.Name)
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(m, om, nm)
			tally[v]++
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.3fx of %.6g\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				nw.Workload, m.Name, om.Value, om.Unit, nm.Value, nm.Unit,
				nm.Value/om.Value, om.Value, 100*m.Bound, 100*om.Spread, 100*nm.Spread, v)
		}
		if nw.Failed > ow.Failed {
			tally[verdictWorse]++
			fmt.Fprintf(tw, "%s\tfailed_ops\t%d of %d\t%d of %d\t\t0\t\t\t%s\n",
				nw.Workload, ow.Failed, ow.Attempted, nw.Failed, nw.Attempted, verdictWorse)
		}
	}
	tw.Flush()
	return tally
}

// compareMain is `bench compare OLD.json NEW.json`: it exits 1 when any
// pair is worse.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the contract holding the bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] OLD.json NEW.json")
		return 2
	}
	s, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	old, err := readDocument(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	new, err := readDocument(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	tally := compareDocuments(os.Stdout, s, old, new)
	fmt.Printf("%d better, %d within-bound, %d worse, %d unresolved\n",
		tally[verdictBetter], tally[verdictWithin], tally[verdictWorse], tally[verdictUnresolved])
	if tally[verdictWorse] > 0 {
		return 1
	}
	return 0
}

// aaMain is `bench aa`: the whole set twice, back to back, on the same
// code. Every pair should come out within-bound; a worse or unresolved
// one means the bound is tighter than this host's noise.
func aaMain(args []string) int {
	fs := flag.NewFlagSet("aa", flag.ExitOnError)
	opt, name, _ := runFlags(fs)
	specPath := fs.String("spec", "BENCHMARK.json", "the contract holding the bounds")
	fs.Parse(args)
	s, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench aa:", err)
		return 2
	}
	var docs [2]document
	for i := range docs {
		fmt.Printf("-- A/A side %d\n", i+1)
		if docs[i], err = runAll(*name, *opt); err != nil {
			fmt.Fprintln(os.Stderr, "bench aa:", err)
			return 1
		}
		if err := writeDocument(docs[i], filepath.Join(opt.outDir, fmt.Sprintf("aa-%d.json", i+1))); err != nil {
			fmt.Fprintln(os.Stderr, "bench aa:", err)
			return 1
		}
	}
	fmt.Println("-- A/A comparison")
	tally := compareDocuments(os.Stdout, s, docs[0], docs[1])
	disagree := tally[verdictWorse] + tally[verdictBetter]
	fmt.Printf("%d pairs agree within their bound, %d disagree, %d unresolved\n",
		tally[verdictWithin], disagree, tally[verdictUnresolved])
	if disagree+tally[verdictUnresolved] > 0 {
		return 1
	}
	return 0
}
