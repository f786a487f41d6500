package shard

import (
	"reflect"
	"sort"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// TestRouterIsTheStatisticsOwner pins the one-owner rule in all three
// replication modes: a query registered mid-stream gets exactly the
// decomposition a serial MultiEngine fed the same prefix would choose
// (pinned router-side — under Ordered and FullReplicas too, where the
// workers used to decompose from private collectors), the worker
// engines hold no collector at all, and the match multiset still
// equals the serial one.
func TestRouterIsTheStatisticsOwner(t *testing.T) {
	edges := testStream(3000)
	const window, cut, batch = 400, 1536, 64
	queries := map[string]*query.Graph{
		"path4": query.NewPath(query.Wildcard, "TCP", "UDP", "ICMP", "GRE"),
		"path3": query.NewPath("ip", "ICMP", "TCP", "UDP"),
		"auto":  query.NewPath(query.Wildcard, "UDP", "TCP", "GRE"),
	}
	strategies := map[string]core.Strategy{
		"path4": core.StrategyPathLazy,
		"path3": core.StrategySingleLazy,
		"auto":  core.StrategyAuto,
	}
	names := sortedNames(queries)
	feed := func(from, to int, ingest func([]stream.Edge)) {
		for lo := from; lo < to; lo += batch {
			ingest(edges[lo:min(lo+batch, to)])
		}
	}

	// The serial reference: leaves chosen at the cut, matches after it.
	serial := core.NewMulti(core.MultiConfig{Window: window, EvictEvery: 7})
	feed(0, cut, func(b []stream.Edge) { serial.ProcessBatch(b) })
	wantLeaves := make(map[string][][]int)
	trained := false
	for _, name := range names {
		if err := serial.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatal(err)
		}
		wantLeaves[name] = serial.QueryEngine(name).Tree().LeafSets()
		cold := core.NewMulti(core.MultiConfig{Window: window})
		if err := cold.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold.QueryEngine(name).Tree().LeafSets(), wantLeaves[name]) {
			trained = true
		}
	}
	if !trained {
		t.Fatal("the prefix statistics change no decomposition; the test is vacuous")
	}
	var want []string
	feed(cut, len(edges), func(b []stream.Edge) {
		for _, nm := range serial.ProcessBatch(b) {
			want = append(want, serialSig(serial, nm))
		}
	})
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}

	for mode, cfg := range map[string]Config{
		"filtered":     {Shards: 2, Window: window, EvictEvery: 7},
		"ordered":      {Shards: 2, Window: window, EvictEvery: 7, Ordered: true},
		"fullreplicas": {Shards: 2, Window: window, EvictEvery: 7, FullReplicas: true},
	} {
		r := New(cfg)
		var got []string
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Drain(func(m Match) { got = append(got, matchSig(m)) })
		}()
		feed(0, cut, func(b []stream.Edge) { r.IngestBatch(b) })
		for _, name := range names {
			if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
				t.Fatalf("%s: register %s: %v", mode, name, err)
			}
		}
		feed(cut, len(edges), func(b []stream.Edge) { r.IngestBatch(b) })
		r.Close()
		<-done

		for _, w := range r.workers {
			if w.eng.Statistics() != nil {
				t.Errorf("%s: shard %d's engine holds a private collector", mode, w.id)
			}
		}
		for _, name := range names {
			leaves := r.owner[name].eng.QueryEngine(name).Tree().LeafSets()
			if !reflect.DeepEqual(leaves, wantLeaves[name]) {
				t.Errorf("%s: %s pinned leaves %v, a serial engine at the same position chooses %v", mode, name, leaves, wantLeaves[name])
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: match multiset differs from serial (%d vs %d matches)", mode, len(got), len(want))
		}
	}
}
