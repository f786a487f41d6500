package shard

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/query"
)

// TestRefusedRegisterDifferential pins that Register refuses what a
// slot engine would refuse before any gate or slot is touched, on a
// local and a remote slot alike: each refusal returns an error with the
// router's gate and footprint bookkeeping, Stats() and (remote) the
// frames sent to the slot unchanged. A refusal that reached the slot
// would leave a window in which a concurrent registration's backfill
// is stamped against types that were never backfilled. After each
// refusal a query sharing the refused one's edge types registers, and
// its matches — backfilled from the log, since the refused types are
// not held — equal the serial oracle's.
func TestRefusedRegisterDifferential(t *testing.T) {
	edges := testStream(1600)
	const window = 500
	shareQ := query.NewPath("ip", "UDP", "ICMP")
	shareCfg := core.Config{Strategy: core.StrategyPathLazy}
	refusals := []struct {
		why string
		q   *query.Graph
		cfg core.Config
	}{
		{"self-loop", &query.Graph{
			Vertices: []query.Vertex{{Name: "a", Label: "ip"}, {Name: "b", Label: "ip"}},
			Edges:    []query.Edge{{Src: 0, Dst: 1, Type: "UDP"}, {Src: 1, Dst: 1, Type: "ICMP"}},
		}, core.Config{Strategy: core.StrategySingle}},
		{"empty leaf", shareQ, core.Config{Strategy: core.StrategySingle, Leaves: [][]int{{0}, {}, {1}}}},
		{"edge in two leaves", shareQ, core.Config{Strategy: core.StrategyPathLazy, Leaves: [][]int{{0, 1}, {1}}}},
		{"leaf index out of range", shareQ, core.Config{Strategy: core.StrategySingle, Leaves: [][]int{{0}, {1}, {2}}}},
		{"edge uncovered", shareQ, core.Config{Strategy: core.StrategySingleLazy, Leaves: [][]int{{1}}}},
		{"no leaves", shareQ, core.Config{Strategy: core.StrategySingle, Leaves: [][]int{}}},
		{"duplicate name", shareQ, shareCfg},
	}
	// Stream positions: a chunk of edges, the base query, then per
	// refusal i: share-(i-1) unregistered, the refusal, share-i
	// registered (its UDP/ICMP past backfilled from the log), a chunk.
	// Each refusal follows a control point, so the slot has
	// acknowledged everything sent to it.
	chunk := len(edges) / (len(refusals) + 1)
	at := func(i int) int { return (i + 1) * chunk }
	base, baseCfg := query.NewPath(query.Wildcard, "GRE", "TCP"), core.Config{Strategy: core.StrategySingleLazy}

	m := core.NewMulti(core.MultiConfig{Window: window})
	var want []string
	for i, se := range edges {
		if i == at(0) {
			if err := m.Register("base", base, baseCfg); err != nil {
				t.Fatal(err)
			}
		}
		for k := range refusals {
			if i == at(k) {
				if k > 0 {
					m.Unregister(fmt.Sprintf("share-%d", k-1))
				}
				if err := m.Register(fmt.Sprintf("share-%d", k), shareQ, shareCfg); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, nm := range m.ProcessEdge(se) {
			want = append(want, serialSig(m, nm))
		}
	}
	sort.Strings(want)
	shared := 0
	for _, sig := range want {
		if sig[:5] == "share" {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("the sharing queries found no matches; the differential is vacuous")
	}

	addr, _ := startRemoteWorker(t)
	for _, tp := range []struct {
		name string
		cfg  Config
	}{
		{"local", Config{Shards: 1, Window: window}},
		{"remote", Config{Remotes: []string{addr}, Window: window}},
	} {
		t.Run(tp.name, func(t *testing.T) {
			r := New(tp.cfg)
			var mu sync.Mutex
			var got []string
			done := make(chan struct{})
			go func() {
				defer close(done)
				r.Drain(func(mt Match) {
					mu.Lock()
					got = append(got, matchSig(mt))
					mu.Unlock()
				})
			}()
			// What a refusal must leave alone.
			type state struct {
				gate, fps string
				stats     []Stats
				framesOut int64
			}
			snapshot := func() state {
				r.ingestMu.Lock()
				defer r.ingestMu.Unlock()
				w := r.workers[0]
				var s state
				s.gate = fmt.Sprint(w.gate.Universal(), w.gateRefs.universal(), w.gateRefs.typeNames())
				s.fps = fmt.Sprint(r.fps)
				s.stats = r.Stats()
				for _, smp := range r.Metrics().Snapshot() {
					if smp.Name == "sg_dshard_frames_out_total" {
						s.framesOut += smp.Value
					}
				}
				return s
			}
			ingest := func(lo, hi int) {
				for ; lo < hi; lo += 64 {
					r.IngestBatch(edges[lo:min(lo+64, hi)])
				}
			}
			ingest(0, at(0))
			if err := r.Register("base", base, baseCfg); err != nil {
				t.Fatal(err)
			}
			for k, ref := range refusals {
				if k > 0 {
					r.Unregister(fmt.Sprintf("share-%d", k-1))
				}
				before := snapshot()
				name := fmt.Sprintf("refused-%d", k)
				if ref.why == "duplicate name" {
					name = "base"
				}
				if err := r.Register(name, ref.q, ref.cfg); err == nil {
					t.Fatalf("%s: registration accepted", ref.why)
				}
				if after := snapshot(); !reflect.DeepEqual(after, before) {
					t.Fatalf("%s: the refusal changed router or slot state:\nbefore %+v\n after %+v", ref.why, before, after)
				}
				if err := r.Register(fmt.Sprintf("share-%d", k), shareQ, shareCfg); err != nil {
					t.Fatalf("after %s: %v", ref.why, err)
				}
				ingest(at(k), min(at(k+1), len(edges)))
			}
			ingest(at(len(refusals)), len(edges))
			r.Close()
			<-done
			sort.Strings(got)
			if !equalStrings(got, want) {
				t.Fatalf("%d matches, want %d (multiset differs from the serial oracle)", len(got), len(want))
			}
		})
	}
}
