package persist

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/query"
)

// The legacy images in testdata were written by the code of their
// format from the first v1Cut edges of testStream(3000), with
// statistics over the whole stream and a window of 300:
//
//   - engine_v1.snap: Save of a standalone engine running testQuery
//     under PathLazy, by version 1 (an eviction cadence of 256 edges,
//     the default);
//   - multi_v1.snap: SaveMulti of a MultiEngine holding testQuery under
//     SingleLazy as "tcp-udp-icmp" and GRE→TCP under Path as "gre-tcp",
//     by version 1;
//   - engine_v2.snap: the same Save as engine_v1.snap by the last code
//     that wrote single-engine ("SGSNAP1") images, at version 2.
const v1Cut, v1Window = 1500, 300

// TestLoadV1ImageDifferential loads each version 1 image, continues it
// on the rest of the stream, and requires per edge the matches of an
// engine of this version that ran the whole stream uninterrupted, with
// the decomposition the image pins.
func TestLoadV1ImageDifferential(t *testing.T) {
	edges := testStream(3000)
	readImage := func(name string) *bytes.Reader {
		t.Helper()
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(data)
	}
	perEdge := func(label string, got, want [][]string) {
		t.Helper()
		total := 0
		for i := range want {
			slices.Sort(got[i])
			slices.Sort(want[i])
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: edge %d: restored engine reports %q, uninterrupted %q", label, v1Cut+i, got[i], want[i])
			}
			total += len(want[i])
		}
		if total == 0 {
			t.Fatalf("%s: no matches after the cut; the differential is vacuous", label)
		}
	}

	t.Run("Load", func(t *testing.T) {
		restored, err := Load(readImage("engine_v1.snap"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := restored.ConfigSnapshot()
		if cfg.Strategy != core.StrategyPathLazy || cfg.Window != v1Window || len(cfg.Leaves) == 0 {
			t.Fatalf("restored config %+v", cfg)
		}
		if n := restored.Stats().EdgesProcessed; n != v1Cut {
			t.Fatalf("restored engine processed %d edges, want %d", n, v1Cut)
		}
		whole, err := core.New(testQuery(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, se := range edges[:v1Cut] {
			whole.ProcessEdge(se)
		}
		var got, want [][]string
		for _, se := range edges[v1Cut:] {
			var g, w []string
			for _, m := range restored.ProcessEdge(se) {
				g = append(g, sig(restored, m))
			}
			for _, m := range whole.ProcessEdge(se) {
				w = append(w, sig(whole, m))
			}
			got, want = append(got, g), append(want, w)
		}
		perEdge("Load", got, want)
	})

	t.Run("LoadMulti", func(t *testing.T) {
		restored, err := LoadMulti(readImage("multi_v1.snap"))
		if err != nil {
			t.Fatal(err)
		}
		if names := restored.Registered(); !slices.Equal(names, []string{"tcp-udp-icmp", "gre-tcp"}) {
			t.Fatalf("restored queries %v", names)
		}
		whole := core.NewMulti(core.MultiConfig{Window: v1Window})
		for _, name := range restored.Registered() {
			eng := restored.QueryEngine(name)
			if err := whole.Register(name, eng.Query(), eng.ConfigSnapshot()); err != nil {
				t.Fatal(err)
			}
		}
		for _, se := range edges[:v1Cut] {
			whole.ProcessEdge(se)
		}
		var got, want [][]string
		for _, se := range edges[v1Cut:] {
			var g, w []string
			for _, nm := range restored.ProcessEdge(se) {
				g = append(g, portableSig(restored, nm))
			}
			for _, nm := range whole.ProcessEdge(se) {
				w = append(w, portableSig(whole, nm))
			}
			got, want = append(got, g), append(want, w)
		}
		perEdge("LoadMulti", got, want)
		if a, b := restored.Stats().EdgesProcessed, whole.Stats().EdgesProcessed; a != b {
			t.Fatalf("restored engine processed %d edges, uninterrupted %d", a, b)
		}
		if a, b := restored.EdgesStored(), whole.EdgesStored(); a != b {
			t.Fatalf("restored engine stored %d edges, uninterrupted %d", a, b)
		}
	})
}

// TestLoadV2ImageDifferential loads the version 2 single-engine image,
// continues it on the rest of the stream, and requires per edge the
// matches of an engine of this version that ran the whole stream
// uninterrupted, with the decomposition the image pins. It also
// requires the sweep clock the image carries.
func TestLoadV2ImageDifferential(t *testing.T) {
	edges := testStream(3000)
	data, err := os.ReadFile("testdata/engine_v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(magic)) || data[len(magic)] != 2 {
		t.Fatalf("testdata/engine_v2.snap is not a version 2 %q image", magic)
	}
	restored, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	cfg := restored.ConfigSnapshot()
	if cfg.Strategy != core.StrategyPathLazy || cfg.Window != v1Window || len(cfg.Leaves) == 0 {
		t.Fatalf("restored config %+v", cfg)
	}
	if n := restored.Stats().EdgesProcessed; n != v1Cut {
		t.Fatalf("restored engine processed %d edges, want %d", n, v1Cut)
	}
	whole, err := core.New(testQuery(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, se := range edges[:v1Cut] {
		whole.ProcessEdge(se)
	}
	// Save swept at the exact cutoff; the clock's last rounded one is
	// behind it or equal.
	seen, cut := whole.Host().SweepClock()
	if rs, rc := restored.Host().SweepClock(); rs != seen || rc < cut || rc > seen-v1Window+1 {
		t.Fatalf("restored sweep clock (%d, %d), uninterrupted (%d, %d)", rs, rc, seen, cut)
	}
	total := 0
	for i, se := range edges[v1Cut:] {
		var got, want []string
		for _, m := range restored.ProcessEdge(se) {
			got = append(got, sig(restored, m))
		}
		for _, m := range whole.ProcessEdge(se) {
			want = append(want, sig(whole, m))
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("edge %d: restored engine reports %q, uninterrupted %q", v1Cut+i, got, want)
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("no matches after the cut; the differential is vacuous")
	}
}

// TestSnapshotWritesV2: both savers write a SaveMulti image at version
// 2 — Save writes its engine's host — and a version 2 image carries the
// sweep clock, so a restored engine — footprint filtered, its clock
// moved by edges it dropped — sweeps where the saved one would have.
func TestSnapshotWritesV2(t *testing.T) {
	edges := testStream(1200)
	for typ := edges[len(edges)-1].Type; typ == "TCP" || typ == "UDP" || typ == "ICMP"; typ = edges[len(edges)-1].Type {
		edges = edges[:len(edges)-1] // end on an edge testQuery's footprint drops
	}
	eng, err := core.New(testQuery(t), core.Config{Strategy: core.StrategySingleLazy, Stats: stats(edges), Window: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, se := range edges {
		eng.ProcessEdge(se)
	}
	var buf bytes.Buffer
	if _, err := Save(&buf, eng); err != nil {
		t.Fatal(err)
	}
	if head, v := string(buf.Bytes()[:len(multiMagic)]), buf.Bytes()[len(multiMagic)]; head != multiMagic || v != 2 {
		t.Fatalf("Save writes %q version %d, want %q version 2", head, v, multiMagic)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	seen, cut := eng.Host().SweepClock()
	if rs, rc := restored.Host().SweepClock(); rs != seen || rc != cut {
		t.Fatalf("restored sweep clock (%d, %d), saved (%d, %d)", rs, rc, seen, cut)
	}
	if seen != edges[len(edges)-1].TS || seen == restored.Graph().LastTS() {
		t.Fatalf("the clock's largest timestamp %d is not the stream's last, %d, beyond the stored edges' %d: the test does not exercise dropped edges",
			seen, edges[len(edges)-1].TS, restored.Graph().LastTS())
	}

	m := core.NewMulti(core.MultiConfig{Window: 200})
	if err := m.Register("q", query.NewPath(query.Wildcard, "TCP", "UDP"), core.Config{Strategy: core.StrategySingleLazy, Stats: stats(edges)}); err != nil {
		t.Fatal(err)
	}
	m.ProcessBatch(edges)
	buf.Reset()
	if err := SaveMulti(&buf, m); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[len(multiMagic)]; v != 2 {
		t.Fatalf("SaveMulti writes version %d, want 2", v)
	}
	rm, err := LoadMulti(&buf)
	if err != nil {
		t.Fatal(err)
	}
	seen, cut = m.SweepClock()
	if rs, rc := rm.SweepClock(); rs != seen || rc != cut {
		t.Fatalf("restored multi sweep clock (%d, %d), saved (%d, %d)", rs, rc, seen, cut)
	}
	if got := fmt.Sprint(rm.Stats().EdgesProcessed, rm.EdgesStored()); got != fmt.Sprint(m.Stats().EdgesProcessed, m.EdgesStored()) {
		t.Fatalf("restored multi counters %s, saved %d %d", got, m.Stats().EdgesProcessed, m.EdgesStored())
	}
}
