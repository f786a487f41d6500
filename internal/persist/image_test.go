package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"streamgraph/internal/core"
)

// goldenEngines runs testStream(2400) through a standalone SingleLazy
// engine and through a MultiEngine holding testQuery under SingleLazy
// and under Path, each with a window of 300.
func goldenEngines(t testing.TB) (*core.Engine, *core.MultiEngine) {
	q := testQuery(t)
	edges := testStream(2400)
	c := stats(edges)
	eng, err := core.New(q, core.Config{Strategy: core.StrategySingleLazy, Window: 300, Stats: c})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMulti(core.MultiConfig{Window: 300})
	if err := m.Register("tcp-udp-icmp", q, core.Config{Strategy: core.StrategySingleLazy, Stats: c}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("path", q, core.Config{Strategy: core.StrategyPath, Stats: c}); err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		eng.ProcessEdge(e)
		m.ProcessEdge(e)
	}
	return eng, m
}

// TestSaveImageGolden pins the bytes SaveMulti writes for a fixed
// stream, and that Save writes exactly SaveMulti of its engine's host
// once the host is flushed and swept. The hash was taken from the
// map-indexed saver that the dense-slice one replaces.
func TestSaveImageGolden(t *testing.T) {
	eng, m := goldenEngines(t)
	check := func(name string, img []byte, size int, want string) {
		t.Helper()
		sum := sha256.Sum256(img)
		if got := hex.EncodeToString(sum[:]); len(img) != size || got != want {
			t.Errorf("%s wrote %d bytes hashing to %s, want %d bytes hashing to %s", name, len(img), got, size, want)
		}
	}
	var buf, host bytes.Buffer
	if _, err := Save(&buf, eng); err != nil {
		t.Fatal(err)
	}
	if err := SaveMulti(&host, eng.Host()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), host.Bytes()) {
		t.Errorf("Save wrote %d bytes, SaveMulti of the flushed host %d bytes that differ", buf.Len(), host.Len())
	}
	buf.Reset()
	if err := SaveMulti(&buf, m); err != nil {
		t.Fatal(err)
	}
	check("SaveMulti", buf.Bytes(), 34908, "45230b00b3ff5fc5a93565aa56029e44bd04d8775dc4eecf45299728518b5643")
}

// countBomb returns a bombSize-byte image that is well formed up to
// the count named by field, which reads 0xFFFFFFF0, and zeros after it:
// a record count no image of that size can hold. The fields are those
// of a single-engine image (multi false) or a multi image; "masks"
// builds a version 1 image, the only version with Lazy Search masks.
func countBomb(t testing.TB, multi bool, field string) []byte {
	const query = "e a b TCP\ne b c UDP\n"
	e := &encoder{}
	v := uint32(2)
	if field == "masks" {
		v = 1
	}
	done := false
	// put writes a count: the bomb at the field under test, n elsewhere.
	put := func(f string, n uint32) {
		if done {
			return
		}
		if f == field {
			e.u32(0xFFFFFFF0)
			done = true
			return
		}
		e.u32(n)
	}
	// leaves writes the decomposition: one leaf per query edge.
	leaves := func() {
		put("leaves", 2)
		put("leaf", 1)
		e.u32(0)
		e.u32(1)
		e.u32(1)
	}
	if !multi {
		e.b = append(e.b, magic...)
		e.u32(v)
		e.str(query)
		e.u32(uint32(core.StrategySingle))
		e.i64(100)
		e.u32(0)
		e.i64(0)
		e.i64(0)
		if v == 1 {
			e.u32(256) // the eviction cadence
		}
		leaves()
		if v == 2 {
			e.i64(math.MinInt64)
			e.i64(math.MinInt64)
		}
		put("vertices", 0)
		put("edges", 0)
		put("stored", 0)
		if v == 1 {
			put("masks", 0)
		}
	} else {
		e.b = append(e.b, multiMagic...)
		e.u32(v)
		e.i64(100)
		if v == 1 {
			e.u32(256) // the eviction cadence
			e.u32(0)   // edges since the last sweep
		} else {
			e.i64(math.MinInt64)
			e.i64(math.MinInt64)
		}
		e.i64(0)
		e.i64(0)
		put("vertices", 0)
		put("edges", 0)
		put("queries", 1)
		e.str("q")
		e.str(query)
		e.u32(uint32(core.StrategySingleLazy))
		e.u32(0)
		e.i64(0)
		e.i64(0)
		e.u32(0)
		leaves()
		put("stored", 0)
		if v == 1 {
			put("masks", 0)
		}
		put("retro leaves", 1)
		put("retro vertices", 0)
	}
	if !done || len(e.b) > bombSize {
		t.Fatalf("no %q count in a %d-byte image", field, bombSize)
	}
	return append(e.b, make([]byte, bombSize-len(e.b))...)
}

const bombSize = 256

// TestLoadRejectsOversizedCounts: a count larger than the rest of the
// image can hold is refused before anything is sized by it, so a small
// corrupt image cannot ask for gigabytes and end the process.
func TestLoadRejectsOversizedCounts(t *testing.T) {
	loaders := []struct {
		name   string
		multi  bool
		fields []string
		load   func([]byte) error
	}{
		{"Load", false, []string{"leaves", "leaf", "vertices", "edges", "stored", "masks"},
			func(b []byte) error { _, err := Load(bytes.NewReader(b)); return err }},
		{"LoadMulti", true, []string{"vertices", "edges", "queries", "leaves", "leaf", "stored", "masks", "retro leaves", "retro vertices"},
			func(b []byte) error { _, err := LoadMulti(bytes.NewReader(b)); return err }},
	}
	for _, l := range loaders {
		for _, field := range l.fields {
			img := countBomb(t, l.multi, field)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := l.load(img)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "count 4294967280") {
				t.Errorf("%s, oversized %s count: got error %v, want the count refused", l.name, field, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("%s, oversized %s count: allocated %d bytes for a %d-byte image", l.name, field, grew, len(img))
			}
		}
	}
}

// fuzzSeeds adds the seeds both fuzz targets start from: a fresh image
// from each saver, the legacy images of testdata and the count bombs.
func fuzzSeeds(f *testing.F) {
	eng, m := goldenEngines(f)
	var buf bytes.Buffer
	if _, err := Save(&buf, eng); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	buf.Reset()
	if err := SaveMulti(&buf, m); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	for _, name := range []string{"engine_v1.snap", "engine_v2.snap", "multi_v1.snap"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(countBomb(f, false, "vertices"))
	f.Add(countBomb(f, true, "retro vertices"))
}

// FuzzLoad: every input gives an error or an engine, never a panic.
func FuzzLoad(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := Load(bytes.NewReader(data))
		if (eng == nil) == (err == nil) {
			t.Fatalf("Load returned engine %v and error %v", eng != nil, err)
		}
	})
}

// FuzzLoadMulti: every input gives an error or an engine, never a panic.
func FuzzLoadMulti(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadMulti(bytes.NewReader(data))
		if (m == nil) == (err == nil) {
			t.Fatalf("LoadMulti returned engine %v and error %v", m != nil, err)
		}
	})
}
