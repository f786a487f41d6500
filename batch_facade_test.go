package streamgraph

import (
	"fmt"
	"sort"
	"testing"
)

// TestFacadeBatchMatchesSerial drives the public batch API: ProcessAll
// with a BatchSize must produce the same matches, in input order, as a
// serial Process loop; the same must hold for Monitor.ProcessBatch.
func TestFacadeBatchMatchesSerial(t *testing.T) {
	edges := facadeTrainingEdges(2000)
	stats := NewStatistics()
	stats.ObserveAll(edges[:400])
	q := facadeQuery(t)

	run := func(batchSize int) []string {
		eng, err := NewEngine(q, Options{
			Strategy: SingleLazy, Window: 200, Statistics: stats,
			BatchSize: batchSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sigs []string
		for _, m := range eng.ProcessAll(edges) {
			sigs = append(sigs, m.String())
		}
		sort.Strings(sigs) // canonical multiset; see comment below
		return sigs
	}

	want := run(0) // serial
	if len(want) == 0 {
		t.Fatal("no matches; comparison is vacuous")
	}
	for _, bs := range []int{1, 10, 256} {
		got := run(bs)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("BatchSize=%d: %d matches, want %d (or order differs)",
				bs, len(got), len(want))
		}
	}

	// Engine.ProcessBatch on an explicit slice equals the same edges
	// processed one at a time.
	serial, err := NewEngine(q, Options{Strategy: Path, Window: 200, Statistics: stats})
	if err != nil {
		t.Fatal(err)
	}
	var fromSerial []string
	for _, se := range edges {
		for _, m := range serial.Process(se) {
			fromSerial = append(fromSerial, m.String())
		}
	}
	batched, err := NewEngine(q, Options{Strategy: Path, Window: 200, Statistics: stats})
	if err != nil {
		t.Fatal(err)
	}
	var fromBatch []string
	for lo := 0; lo < len(edges); lo += 128 {
		hi := lo + 128
		if hi > len(edges) {
			hi = len(edges)
		}
		for _, m := range batched.ProcessBatch(edges[lo:hi]) {
			fromBatch = append(fromBatch, m.String())
		}
	}
	// Within one edge's match set the enumeration order may differ
	// (eviction swap-deletes permute adjacency lists); the per-edge SET
	// equality is enforced by the core differential tests, so compare
	// the canonical multiset here.
	sort.Strings(fromBatch)
	sort.Strings(fromSerial)
	if fmt.Sprint(fromBatch) != fmt.Sprint(fromSerial) {
		t.Fatalf("ProcessBatch: %d matches, serial %d", len(fromBatch), len(fromSerial))
	}
}

func TestMonitorProcessBatch(t *testing.T) {
	build := func() *Monitor {
		mon := NewMonitor(MonitorOptions{Window: 300})
		q1, _ := ParseQuery("e a b rdp\ne b c ftp\n")
		q2, _ := ParseQuery("e x y http\n")
		if err := mon.Register("lateral", q1, Single); err != nil {
			t.Fatal(err)
		}
		if err := mon.Register("web", q2, Single); err != nil {
			t.Fatal(err)
		}
		return mon
	}
	edges := facadeTrainingEdges(1500)

	serialMon := build()
	var want []string
	for _, se := range edges {
		for _, qm := range serialMon.Process(se) {
			want = append(want, qm.Query+"|"+qm.Match.String())
		}
	}
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("no matches; comparison is vacuous")
	}

	batchMon := build()
	var got []string
	for lo := 0; lo < len(edges); lo += 200 {
		hi := lo + 200
		if hi > len(edges) {
			hi = len(edges)
		}
		for _, qm := range batchMon.ProcessBatch(edges[lo:hi]) {
			got = append(got, qm.Query+"|"+qm.Match.String())
		}
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Monitor.ProcessBatch multiset differs: %d vs %d matches", len(got), len(want))
	}
}

// allocsPerCall fills batch with fresh timestamps, k edges of the
// query's type "hit" among ones of type "miss", and returns the average
// allocations of call over it once the engine is warm.
func allocsPerCall(k int, call func([]Edge) int) (allocs float64, matches int) {
	batch := make([]Edge, 64)
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("h%d", i)
	}
	ts, i := int64(0), 0
	run := func() {
		for j := range batch {
			ts++
			tp := "miss"
			if j < k {
				tp = "hit"
			}
			batch[j] = Edge{Src: names[i%16], SrcLabel: "ip", Dst: names[(i+1)%16], DstLabel: "ip", Type: tp, TS: ts}
			i++
		}
		matches = call(batch)
	}
	for r := 0; r < 64; r++ {
		run()
	}
	return testing.AllocsPerRun(200, run), matches
}

// TestFacadeAllocsPerCall gates the facade's resolve memory: a call
// resolves all of its matches into one slab, so what Monitor.ProcessBatch
// and Engine.ProcessBatch allocate per call does not grow with the number
// of matches the call returns (1 or 64 here, out of 64-edge batches of
// one-edge-query hits and misses, names drawn from 16 hosts so the engine
// itself runs at its allocation-free steady state).
func TestFacadeAllocsPerCall(t *testing.T) {
	q, err := ParseQuery("e a b hit")
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name string
		call func() func([]Edge) int
	}{
		{"Monitor.ProcessBatch", func() func([]Edge) int {
			mon := NewMonitor(MonitorOptions{Window: 200})
			if err := mon.Register("q", q, Single); err != nil {
				t.Fatal(err)
			}
			return func(batch []Edge) int { return len(mon.ProcessBatch(batch)) }
		}},
		{"Engine.ProcessBatch", func() func([]Edge) int {
			eng, err := NewEngine(q, Options{Strategy: Single, Window: 200, Decomposition: [][]int{{0}}})
			if err != nil {
				t.Fatal(err)
			}
			return func(batch []Edge) int { return len(eng.ProcessBatch(batch)) }
		}},
	} {
		few, n1 := allocsPerCall(1, tier.call())
		many, n64 := allocsPerCall(64, tier.call())
		if n1 != 1 || n64 != 64 {
			t.Fatalf("%s: %d and %d matches per call, want 1 and 64", tier.name, n1, n64)
		}
		if many > few {
			t.Errorf("%s: %v allocs per call returning 64 matches, %v returning 1; want no growth with the match count", tier.name, many, few)
		}
		t.Logf("%s: %v allocs per call (1 match), %v (64 matches)", tier.name, few, many)
	}
}

// BenchmarkMonitorProcessBatch is the facade's resolve layer end to end:
// two queries on one Monitor over 512-edge batches of the facade test
// stream, ~1 match per edge, every match resolved for the caller.
func BenchmarkMonitorProcessBatch(b *testing.B) {
	mon := NewMonitor(MonitorOptions{Window: 300})
	for _, reg := range [][2]string{{"lateral", "e a b rdp\ne b c ftp\n"}, {"web", "e x y http\n"}} {
		q, err := ParseQuery(reg[1])
		if err != nil {
			b.Fatal(err)
		}
		if err := mon.Register(reg[0], q, Single); err != nil {
			b.Fatal(err)
		}
	}
	const batchSize = 512
	base := facadeTrainingEdges(batchSize)
	batch := make([]Edge, batchSize)
	matches := 0
	b.ReportAllocs()
	for r := int64(0); b.Loop(); r++ {
		for j, e := range base {
			e.TS += r * batchSize
			batch[j] = e
		}
		matches += len(mon.ProcessBatch(batch))
	}
	b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
}
