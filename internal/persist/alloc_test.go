package persist

import (
	"bytes"
	"fmt"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/datagen"
)

// TestLoadAllocBound: restoring an image with V vertices costs at most
// V + a constant allocations, for both loaders — one copied-out name per
// vertex, and besides it the engine, one buffer for the image and one
// slab per table, none of which grows while the image is decoded. It is
// checked at two window sizes, so that a cost per edge, per stored
// partial match or per byte of the image shows as a constant that does
// not hold at both.
func TestLoadAllocBound(t *testing.T) {
	// Measured: 114 for Load and 255-257 for LoadMulti (two queries) at
	// both sizes, nearly all of it building the engines.
	const slack = 300
	edges := datagen.Netflow(datagen.NetflowConfig{Edges: 6000, Hosts: 5000, Seed: 7})
	c := stats(edges)
	check := func(name string, img []byte, verts int, load func(*bytes.Reader) error) {
		t.Helper()
		avg := testing.AllocsPerRun(10, func() {
			if err := load(bytes.NewReader(img)); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(verts + slack); avg > limit {
			t.Errorf("%s allocates %.0f times for %d vertices, want <= %.0f", name, avg, verts, limit)
		}
	}
	for _, window := range []int64{500, 3000} {
		eng, err := core.New(testQuery(t), core.Config{Strategy: core.StrategySingle, Window: window, Stats: c})
		if err != nil {
			t.Fatal(err)
		}
		m := core.NewMulti(core.MultiConfig{Window: window})
		for i, s := range []core.Strategy{core.StrategySingle, core.StrategySingleLazy} {
			if err := m.Register(fmt.Sprint("q", i), testQuery(t), core.Config{Strategy: s, Stats: c}); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range edges {
			eng.ProcessEdge(e)
			m.ProcessEdge(e)
		}
		if eng.Tree().StoredMatches() == 0 || m.Stats().PartialMatches == 0 {
			t.Fatalf("window %d: no stored partial matches to restore", window)
		}
		var buf bytes.Buffer
		if _, err := Save(&buf, eng); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Load, window %d", window), buf.Bytes(), eng.Graph().LiveVertices(),
			func(r *bytes.Reader) error { _, err := Load(r); return err })
		var mbuf bytes.Buffer
		if err := SaveMulti(&mbuf, m); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("LoadMulti, window %d", window), mbuf.Bytes(), m.Graph().LiveVertices(),
			func(r *bytes.Reader) error { _, err := LoadMulti(r); return err })
	}
}
