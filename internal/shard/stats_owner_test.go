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
// replication modes and across a restart: a query registered mid-stream
// with neither Stats nor Leaves gets exactly the decomposition a serial
// MultiEngine fed the same prefix chooses — the router pins it from its
// log's window, the serial engine from its graph's — the match multiset
// equals the serial one, and nothing on an ingest path has reached
// internal/selectivity: whatever statistics the router or a worker
// engine can produce count the window's edges, not the stream's.
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
	serial := core.NewMulti(core.MultiConfig{Window: window})
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

	// inWindow counts the window of the stream restricted to types (nil:
	// every type); a filtered replica's clock is its last admitted edge.
	inWindow := func(types map[string]bool) (n int64) {
		var kept []stream.Edge
		for _, e := range edges {
			if types == nil || types[e.Type] {
				kept = append(kept, e)
			}
		}
		for _, e := range kept {
			if e.TS >= kept[len(kept)-1].TS-window+1 {
				n++
			}
		}
		return n
	}
	if inWindow(nil) >= int64(len(edges))/2 {
		t.Fatal("the window holds most of the stream; the edge-count check is vacuous")
	}
	dir := t.TempDir()
	for _, mode := range []string{"filtered", "ordered", "fullreplicas", "restarted"} {
		cfg := Config{Shards: 2, Window: window}
		var r *Router
		switch mode {
		case "ordered":
			cfg.Ordered = true
		case "fullreplicas":
			cfg.FullReplicas = true
		case "restarted":
			// The prefix goes through a first process; the registrations
			// reach the one that recovered its data dir.
			cfg.DataDir, cfg.CheckpointEvery = dir, 128
			first, _, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() { defer close(done); first.Drain(nil) }()
			feed(0, cut, func(b []stream.Edge) { first.IngestBatch(b) })
			first.Close()
			<-done
			if r, _, err = Open(cfg); err != nil {
				t.Fatal(err)
			}
		}
		if r == nil {
			r = New(cfg)
			feed(0, cut, func(b []stream.Edge) { r.IngestBatch(b) })
		}
		var got []string
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Drain(func(m Match) { got = append(got, matchSig(m)) })
		}()
		for _, name := range names {
			if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
				t.Fatalf("%s: register %s: %v", mode, name, err)
			}
		}
		feed(cut, len(edges), func(b []stream.Edge) { r.IngestBatch(b) })
		r.Close()
		<-done

		if got, want := r.log.Statistics(window).EdgeTotal(), inWindow(nil); got != want {
			t.Errorf("%s: the router's statistics count %d edges, the window holds %d (the stream %d)", mode, got, want, len(edges))
		}
		for _, w := range r.workers {
			var types map[string]bool // nil: a full replica
			if r.filtering && !w.rset.universal() {
				types = make(map[string]bool)
				for _, tp := range w.rset.typeNames() {
					types[tp] = true
				}
			}
			if got, want := w.slot.Eng.Statistics().EdgeTotal(), inWindow(types); got != want {
				t.Errorf("%s: shard %d's statistics count %d edges, its share of the window is %d", mode, w.id, got, want)
			}
		}
		for _, name := range names {
			leaves := r.owner[name].slot.Eng.QueryEngine(name).Tree().LeafSets()
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
