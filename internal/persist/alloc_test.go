package persist

import (
	"bytes"
	"testing"

	"streamgraph/internal/core"
)

// TestLoadAllocsPerObject bounds what restoring an image allocates by
// what the image holds: at most 3 allocations per live edge, vertex and
// stored partial match (measured: 1.9 — a type or name string, table
// growth; a stored match is decoded into one scratch match and copied
// into its node's slab, so it costs none of its own). Decoding itself
// must add nothing: when every u32/u64 heap-allocated its scratch, this
// image cost 11 per object, and a recovery is one Load.
func TestLoadAllocsPerObject(t *testing.T) {
	edges := testStream(600)
	c := stats(edges)
	check := func(name string, img []byte, objects int, load func(*bytes.Reader) error) {
		t.Helper()
		avg := testing.AllocsPerRun(20, func() {
			if err := load(bytes.NewReader(img)); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(3 * objects); avg > limit {
			t.Errorf("%s allocates %.0f times for %d objects, want <= %.0f", name, avg, objects, limit)
		}
	}

	eng, err := core.New(testQuery(t), core.Config{Strategy: core.StrategySingle, Window: 400, Stats: c})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		eng.ProcessEdge(e)
	}
	var buf bytes.Buffer
	if _, err := Save(&buf, eng); err != nil {
		t.Fatal(err)
	}
	g := eng.Graph()
	check("Load", buf.Bytes(), g.NumEdges()+g.LiveVertices()+eng.Tree().StoredMatches(),
		func(r *bytes.Reader) error { _, err := Load(r); return err })

	m := core.NewMulti(core.MultiConfig{Window: 400})
	if err := m.Register("q3", testQuery(t), core.Config{Strategy: core.StrategySingleLazy, Stats: c}); err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		m.ProcessEdge(e)
	}
	var mbuf bytes.Buffer
	if err := SaveMulti(&mbuf, m); err != nil {
		t.Fatal(err)
	}
	g = m.Graph()
	check("LoadMulti", mbuf.Bytes(), g.NumEdges()+g.LiveVertices()+int(m.Stats().PartialMatches),
		func(r *bytes.Reader) error { _, err := LoadMulti(r); return err })
}
