package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/query"
)

// portableSig canonicalizes a NamedMatch through ResolveMatch so it
// can be compared across engine instances.
func portableSig(m *core.MultiEngine, nm core.NamedMatch) string {
	bindings, edges := m.ResolveMatch(nm)
	s := nm.Query + "|"
	for _, b := range bindings {
		s += b.QueryVertex + "=" + b.DataVertex + ";"
	}
	for _, e := range edges {
		s += fmt.Sprintf("%d:%s>%s@%d;", e.QueryEdge, e.Src, e.Dst, e.TS)
	}
	return s
}

// TestSaveMultiLiveContinuation checkpoints a live MultiEngine
// mid-stream WITHOUT flushing and verifies the restored engine's
// per-edge match output over the suffix is identical to an
// uninterrupted run — including lazily deferred matches whose
// retrospective repair was queued but not yet drained at the cut, and
// including the engine that was checkpointed (SaveMulti must not
// mutate it).
func TestSaveMultiLiveContinuation(t *testing.T) {
	edges := testStream(2400)
	c := stats(edges)
	q3 := testQuery(t)
	q2, err := query.Parse(`
		e a b TCP
		e b c UDP
	`)
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{60, 600, 1200, 2399} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			mk := func() *core.MultiEngine {
				m := core.NewMulti(core.MultiConfig{Window: 500})
				if err := m.Register("q3", q3, core.Config{Strategy: core.StrategySingleLazy, Stats: c}); err != nil {
					t.Fatal(err)
				}
				if err := m.Register("q2", q2, core.Config{Strategy: core.StrategyPathLazy, Stats: c}); err != nil {
					t.Fatal(err)
				}
				return m
			}
			ref, sub := mk(), mk()
			for i, e := range edges[:cut] {
				a, b := ref.ProcessEdge(e), sub.ProcessEdge(e)
				if len(a) != len(b) {
					t.Fatalf("prefix edge %d: runs diverged before snapshotting", i)
				}
			}

			var buf bytes.Buffer
			if err := SaveMulti(&buf, sub); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadMulti(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := restored.Registered(); len(got) != 2 || got[0] != "q3" || got[1] != "q2" {
				t.Fatalf("restored registrations %v", got)
			}

			// Per-edge multiset comparison: the restored graph's
			// adjacency lists can enumerate neighbors in a different
			// order than the original's eviction-reordered ones, which
			// permutes matches WITHIN one edge's result set without
			// changing the set — the same multiset ≡ serial bar the
			// sharded runtime holds.
			sigs := func(m *core.MultiEngine, nms []core.NamedMatch) []string {
				out := make([]string, len(nms))
				for j, nm := range nms {
					out[j] = portableSig(m, nm)
				}
				sort.Strings(out)
				return out
			}
			for i, e := range edges[cut:] {
				want := sigs(ref, ref.ProcessEdge(e))
				gotSub := sigs(sub, sub.ProcessEdge(e))
				gotRes := sigs(restored, restored.ProcessEdge(e))
				if len(gotSub) != len(want) || len(gotRes) != len(want) {
					t.Fatalf("suffix edge %d: %d matches from reference, %d from checkpointed, %d from restored",
						i, len(want), len(gotSub), len(gotRes))
				}
				for j := range want {
					if gotSub[j] != want[j] {
						t.Fatalf("suffix edge %d match %d: checkpointed engine diverged:\n  want %s\n  got  %s", i, j, want[j], gotSub[j])
					}
					if gotRes[j] != want[j] {
						t.Fatalf("suffix edge %d match %d: restored engine diverged:\n  want %s\n  got  %s", i, j, want[j], gotRes[j])
					}
				}
			}
		})
	}
}

// TestLoadMultiRejectsCorrupt sanity-checks the validation paths.
func TestLoadMultiRejectsCorrupt(t *testing.T) {
	m := core.NewMulti(core.MultiConfig{Window: 100})
	if err := m.Register("q", testQuery(t), core.Config{Strategy: core.StrategySingleLazy, Stats: stats(testStream(100))}); err != nil {
		t.Fatal(err)
	}
	for _, e := range testStream(200) {
		m.ProcessEdge(e)
	}
	var buf bytes.Buffer
	if err := SaveMulti(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := LoadMulti(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated snapshot loaded without error")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := LoadMulti(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic loaded without error")
	}
}

// TestLoadMultiOlderImage: an image written when a registration's config
// still carried a search-pool size loads — the slot is skipped, whatever
// it holds, and every field around it keeps its value.
func TestLoadMultiOlderImage(t *testing.T) {
	const steps = 0x1122334455667788 // a marker to find the config by
	m := core.NewMulti(core.MultiConfig{Window: 100})
	err := m.Register("q", testQuery(t), core.Config{
		Strategy: core.StrategySingleLazy, Stats: stats(testStream(100)), MaxStepsPerSearch: steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveMulti(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	marker := binary.LittleEndian.AppendUint64(nil, steps)
	at := bytes.Index(data, marker)
	if at < 0 || bytes.Count(data, marker) != 1 {
		t.Fatal("cannot locate the registration's config in the image")
	}
	slot := data[at+8 : at+12] // the u32 after MaxStepsPerSearch
	if !bytes.Equal(slot, []byte{0, 0, 0, 0}) {
		t.Fatalf("pool-size slot written as %v, want zeros", slot)
	}
	slot[0] = 2 // as an engine configured with two workers wrote it
	restored, err := LoadMulti(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("image with a non-zero pool-size slot: %v", err)
	}
	cfg := restored.QueryEngine("q").ConfigSnapshot()
	if cfg.MaxStepsPerSearch != steps || cfg.Strategy != core.StrategySingleLazy || len(cfg.Leaves) == 0 {
		t.Fatalf("config around the slot did not survive: %+v", cfg)
	}
}
