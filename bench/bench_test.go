package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func loadSpec(t *testing.T) spec {
	t.Helper()
	s, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	return s
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func specNames(ms []specMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// TestQuickWorkloads runs every workload at test size, untraced and
// traced: no operation may fail, and the metrics that come out must be
// exactly the ones BENCHMARK.json lists. The workloads BENCHMARK.json
// lists must be the ones the code does not mark host-bound, in order.
func TestQuickWorkloads(t *testing.T) {
	s := loadSpec(t)
	var gated []specWorkload
	for _, w := range workloads {
		if !w.hostBound {
			gated = append(gated, specWorkload{Name: w.name, Why: w.why})
		}
	}
	if !slices.Equal(s.Workloads, gated) {
		t.Errorf("workloads\nBENCHMARK.json %+v\nthe code       %+v", s.Workloads, gated)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			opt := options{seed: 1, seconds: 1, quick: true, trace: trace, outDir: t.TempDir(), tmpDir: t.TempDir()}
			res, err := runWorkload(w, opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed != 0 {
				t.Errorf("%s trace=%v: failed_ops = %d of %d", w.name, trace, res.Failed, res.Attempted)
			}
			if res.Ops == 0 {
				t.Errorf("%s: the oracle expects no match at test size, so the check is vacuous", w.name)
			}
			got, want := names(res.EndToEnd), specNames(s.EndToEnd)
			if trace {
				got, want = names(res.PerLayer), specNames(s.PerLayer)
				if _, err := os.Stat(filepath.Join(opt.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span dump: %v", w.name, err)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", w.name, trace, got, want)
			}
			var line struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
				t.Fatalf("%s: contract line: %v", w.name, err)
			}
			if !line.Correct || line.Failed != 0 || len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: contract line %s", w.name, trace, res.contractLine())
			}
			if !trace {
				for name, v := range line.Metrics {
					if v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must be a positive number", w.name, name, v.Value)
					}
				}
			}
		}
	}
}

// TestMulti6SameOps holds the four multi-query rows to one oracle: the
// same six queries over the same stream expect the same matches.
func TestMulti6SameOps(t *testing.T) {
	var ops []int64
	for _, w := range workloads {
		if !strings.HasPrefix(w.name, "multi6_") {
			continue
		}
		r := &runner{w: w, opt: options{seed: 7, quick: true, tmpDir: t.TempDir()}}
		var err error
		if r.in, _, err = r.setup(); err != nil {
			t.Fatal(err)
		}
		r.stopWorker()
		if err := r.prepare(-1); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, r.res.Ops)
	}
	for _, n := range ops {
		if n != ops[0] || n == 0 {
			t.Fatalf("multi6 rows expect %v matches; want four equal, non-zero counts", ops)
		}
	}
}

// TestSpecMatchesCode checks BENCHMARK.json against the metric tables
// of the code and against the limits of the contract it is written to.
func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	if len(s.Paths) != 1 || s.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", s.Paths)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", s.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range s.Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the contract", m.Name, m.Unit)
			}
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, m, want[i])
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v must be in (0, 0.25]", m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd, true)
	check("per_layer", s.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("end_to_end must hold setup_s")
	}
}

func TestVerdicts(t *testing.T) {
	lower := specMetric{Name: "lag", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "rate", Better: "higher", Bound: 0.10}
	at := func(value, spread float64) metric { return metric{Value: value, Spread: spread} }
	cases := []struct {
		m        specMetric
		old, new metric
		want     string
	}{
		{lower, at(100, 0.02), at(105, 0.02), verdictWithin},
		{lower, at(100, 0.02), at(115, 0.02), verdictWorse},
		{lower, at(100, 0.02), at(85, 0.02), verdictBetter},
		{lower, at(100, 0.02), at(150, 0.12), verdictUnresolved}, // new side noisier than the bound
		{lower, at(100, 0.30), at(100, 0.01), verdictUnresolved}, // never "unchanged" on a noisy base
		{higher, at(100, 0.02), at(85, 0.02), verdictWorse},
		{higher, at(100, 0.02), at(115, 0.02), verdictBetter},
		{higher, at(100, 0.02), at(95, 0.02), verdictWithin},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.m.Name, c.old, c.new, got, c.want)
		}
	}
}

func TestCompareCountsWorse(t *testing.T) {
	s := spec{EndToEnd: []specMetric{{Name: "edges_per_s", Better: "higher", Bound: 0.08}}}
	doc := func(v float64, failed int64) document {
		return document{Workloads: []workloadResult{{Workload: "w", Failed: failed,
			EndToEnd: []metric{newMetric(endToEnd[0], v, v, v*1.01, v*0.99)}}}}
	}
	var sb strings.Builder
	if tally := compareDocuments(&sb, s, doc(1000, 0), doc(1020, 0)); tally[verdictWithin] != 1 || tally[verdictWorse] != 0 {
		t.Errorf("2%% faster: %v\n%s", tally, sb.String())
	}
	if tally := compareDocuments(&sb, s, doc(1000, 0), doc(800, 0)); tally[verdictWorse] != 1 {
		t.Errorf("20%% slower: %v", tally)
	}
	if tally := compareDocuments(&sb, s, doc(1000, 0), doc(1000, 3)); tally[verdictWorse] != 1 {
		t.Errorf("new failures must count as worse: %v", tally)
	}
}

// TestQuartilesMatchPython pins the helper to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5}, 5, 5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestPercentiles(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for p, want := range map[float64]int64{50: 500, 99: 990, 99.9: 999, 100: 1000} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(%v) = %d, want %d", p, got, want)
		}
	}
	// Two of eight groups hold a stall: the median of the group
	// percentiles does not see it, the percentile of the whole does.
	samples, group := make([]int64, 800), make([]int32, 800)
	for i := range samples {
		samples[i], group[i] = 10, int32(i%8)
		if i%8 == 3 || i%8 == 6 {
			samples[i] = 1000
		}
	}
	if got := median(groupPercentile(samples, group, 8, 99)); got != 10 {
		t.Errorf("median of group p99s = %v, want 10", got)
	}
	if got := groupPercentile(samples[:4], group[:4], 8, 50); len(got) != 8 || !math.IsNaN(got[7]) || got[3] != 1000 {
		t.Errorf("one value per group, NaN for an empty one; got %v", got)
	}
	// Two passes over three epochs: a stall in one pass, an epoch the
	// other pass never reached. The best of each epoch, then the median.
	nan := math.NaN()
	if got := bestOf([][]float64{{5, 90, 7}, {6, 4, nan}}); got != 5 {
		t.Errorf("bestOf = %v, want median(5, 4, 7) = 5", got)
	}
}

func TestMultisetDiff(t *testing.T) {
	want := []uint64{5, 1, 9, 9, 3}
	order := append([]uint64(nil), want...)
	if d := multisetDiff(want, []uint64{9, 3, 9, 5, 1}); d != 0 {
		t.Errorf("same multiset, other order: diff %d", d)
	}
	if d := multisetDiff(want, []uint64{9, 3, 5, 1, 7}); d != 2 {
		t.Errorf("one missing, one extra: diff %d, want 2", d)
	}
	if d := multisetDiff(want, []uint64{9, 3, 9, 5}); d != 1 {
		t.Errorf("one missing: diff %d, want 1", d)
	}
	if !slices.Equal(want, order) {
		t.Errorf("the oracle's order was disturbed: %v", want)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer("w")
	tr.spans = []span{
		{Name: "outer", ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "inner", ID: 1, Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "inner", ID: 2, Parent: 0, StartNS: 50, EndNS: 70},
	}
	by := tr.byName(0, tr.mark())
	if by["outer"].total != 100 || by["outer"].self != 50 {
		t.Errorf("outer: total %v self %v, want 100 and 50", by["outer"].total, by["outer"].self)
	}
	if by["inner"].calls != 2 || by["inner"].total != 50 {
		t.Errorf("inner: %+v", by["inner"])
	}
}
