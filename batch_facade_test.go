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
