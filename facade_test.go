package streamgraph

import (
	"bytes"
	"fmt"
	"testing"
)

func facadeTrainingEdges(n int) []Edge {
	var out []Edge
	for i := 0; i < n; i++ {
		// http everywhere, rdp rare, ftp in between.
		t := "http"
		switch {
		case i%17 == 0:
			t = "rdp"
		case i%5 == 0:
			t = "ftp"
		}
		out = append(out, Edge{
			Src: fmt.Sprintf("h%d", i%23), SrcLabel: "ip",
			Dst: fmt.Sprintf("h%d", (i*7+1)%23), DstLabel: "ip",
			Type: t, TS: int64(i + 1),
		})
	}
	return out
}

func facadeQuery(t *testing.T) *Query {
	t.Helper()
	q, err := ParseQuery("e a b rdp\ne b c ftp\ne c d http")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestOptimizeAndPinDecomposition(t *testing.T) {
	edges := facadeTrainingEdges(2000)
	stats := NewStatistics()
	stats.ObserveAll(edges)
	q := facadeQuery(t)

	choice, err := Optimize(q, stats, Exact)
	if err != nil {
		t.Fatal(err)
	}
	if len(choice.Leaves) == 0 || choice.PredictedWork <= 0 {
		t.Fatalf("empty plan: %+v", choice)
	}

	pinned, err := NewEngine(q, Options{
		Strategy:      SingleLazy,
		Decomposition: choice.Leaves,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(q, Options{Strategy: Single, Statistics: stats})
	if err != nil {
		t.Fatal(err)
	}
	var nPinned, nRef int
	for _, e := range edges {
		nPinned += len(pinned.Process(e))
		nRef += len(ref.Process(e))
	}
	if nPinned != nRef {
		t.Fatalf("pinned plan found %d matches, reference %d", nPinned, nRef)
	}
	if nRef == 0 {
		t.Fatal("stream produced no matches; weak test")
	}

	if _, err := Optimize(q, stats, Genetic); err != nil {
		t.Fatalf("Genetic: %v", err)
	}
	if _, err := Optimize(q, nil, Exact); err == nil {
		t.Fatal("Optimize without statistics accepted")
	}
	if _, err := Optimize(q, stats, Greedy); err == nil {
		t.Fatal("Optimize(Greedy) should direct users to the engine default")
	}
}

func TestSnapshotRoundTripViaFacade(t *testing.T) {
	edges := facadeTrainingEdges(2000)
	stats := NewStatistics()
	stats.ObserveAll(edges)
	q := facadeQuery(t)

	ref, err := NewEngine(q, Options{Strategy: PathLazy, Statistics: stats})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewEngine(q, Options{Strategy: PathLazy, Statistics: stats})
	if err != nil {
		t.Fatal(err)
	}
	cut := 1200
	refSeen := map[string]bool{}
	for _, e := range edges[:cut] {
		ref.Process(e)
		snap.Process(e)
	}
	for _, e := range edges[cut:] {
		for _, m := range ref.Process(e) {
			refSeen[m.String()] = true
		}
	}

	var buf bytes.Buffer
	flushed, err := SaveSnapshot(&buf, snap)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range flushed {
		got[m.String()] = true
	}
	for _, e := range edges[cut:] {
		for _, m := range restored.Process(e) {
			got[m.String()] = true
		}
	}
	for s := range refSeen {
		if !got[s] {
			t.Fatalf("restored engine lost match %s", s)
		}
	}
	if restored.Decomposition() != snap.Decomposition() {
		t.Fatalf("decomposition changed across snapshot: %q vs %q",
			restored.Decomposition(), snap.Decomposition())
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := LoadSnapshot(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestPublicMatchesSurviveLaterCalls pins the facade's side of the match
// lifetime contract: internally an engine takes a call's matches back
// when the next call starts, but Engine and Monitor resolve every match
// into names and timestamps of their own before returning, so what the
// public API hands out stays as it was however the stream goes on — per
// edge, in batches, or through a snapshot. A call's matches share one
// slab, so the test also appends to the first match of every call that
// returned several: the match next to it must not change either.
func TestPublicMatchesSurviveLaterCalls(t *testing.T) {
	edges := facadeTrainingEdges(2000)
	stats := NewStatistics()
	stats.ObserveAll(edges)
	q := facadeQuery(t)

	eng, err := NewEngine(q, Options{Strategy: SingleLazy, Statistics: stats, Window: 400})
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(MonitorOptions{Window: 400})
	if err := mon.Register("q", q, Single); err != nil {
		t.Fatal(err)
	}

	type kept struct {
		m    Match
		then string
	}
	var held []kept
	scribbled := 0
	keep := func(ms []Match) {
		for _, m := range ms {
			held = append(held, kept{m, fmt.Sprintf("%+v", m)})
		}
		if len(ms) > 1 {
			_ = append(ms[0].Bindings, Binding{QueryVertex: "scribble", DataVertex: "scribble"})
			_ = append(ms[0].Edges, MatchedEdge{Src: "scribble", Dst: "scribble"})
			scribbled++
		}
	}
	keepQ := func(qms []QueryMatch) {
		ms := make([]Match, len(qms))
		for i, qm := range qms {
			ms[i] = qm.Match
		}
		keep(ms)
	}
	for lo := 0; lo < len(edges); lo += 40 {
		chunk := edges[lo:min(lo+40, len(edges))]
		if (lo/40)%2 == 0 {
			for _, e := range chunk {
				keep(eng.Process(e))
				keepQ(mon.Process(e))
			}
			continue
		}
		keep(eng.ProcessBatch(chunk))
		keepQ(mon.ProcessBatch(chunk))
	}
	var buf bytes.Buffer
	flushed, err := SaveSnapshot(&buf, eng)
	if err != nil {
		t.Fatal(err)
	}
	keep(flushed)
	eng.Process(edges[len(edges)-1])

	if len(held) < 100 || scribbled < 10 {
		t.Fatalf("only %d matches held, %d calls with several; weak test", len(held), scribbled)
	}
	for i, k := range held {
		if now := fmt.Sprintf("%+v", k.m); now != k.then {
			t.Fatalf("match %d changed after it was returned:\n was %s\n now %s", i, k.then, now)
		}
	}
}
