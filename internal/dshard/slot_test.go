package dshard

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/persist"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

func slotEdge(src, dst, typ string, ts int64) stream.Edge {
	return stream.Edge{Src: src, SrcLabel: "ip", Dst: dst, DstLabel: "ip", Type: typ, TS: ts}
}

// laggingSlot returns a filtered slot {GRE, TCP} holding the lazy query
// "q" (GRE then TCP) that has admitted seqs 0 and 1 of a three-edge
// batch: the UDP edge at seq 2 is filtered out, so lastEnd stays 2 while
// the stream stands at 3.
func laggingSlot(t *testing.T) *Slot {
	t.Helper()
	s := NewSlot(core.NewMulti(core.MultiConfig{Window: 100}), false)
	err := s.Register(SlotRegister{
		Name: "q", Query: query.NewPath("ip", "GRE", "TCP"), Rank: 7,
		Config: core.Config{Strategy: core.StrategySingleLazy, Leaves: [][]int{{0}, {1}}},
		Types:  []string{"GRE", "TCP"},
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := []stream.Edge{slotEdge("b", "c", "TCP", 1), slotEdge("a", "b", "GRE", 2), slotEdge("x", "y", "UDP", 3)}
	if rows := s.ProcessEdges(0, batch); len(rows[0])+len(rows[2]) != 0 || len(rows[1]) != 1 {
		t.Fatalf("batch completed %v; want one match, at the GRE edge (its repair reaches the earlier TCP edge)", rows)
	}
	if s.LastEnd() != 2 {
		t.Fatalf("lastEnd = %d after a batch whose last admitted edge is seq 1, want 2", s.LastEnd())
	}
	return s
}

// TestSlotFlushBarrier is the flush-barrier contract of the slot engine,
// which the local worker and the connection host both drive: a control
// point at stream position p runs the engine's queued repairs iff
// lastEnd < p (a repair queue normally drains within the edge that
// filled it, so the flush is counted, not its matches), a migration's
// source-side removal (HandOver) does as an unregister does, a
// checkpoint never does, and a registration whose state is refused
// leaves no query and the old filter.
func TestSlotFlushBarrier(t *testing.T) {
	for _, tc := range []struct {
		name    string
		op      func(t *testing.T, s *Slot, emit Emit)
		flushes int
	}{
		{"lastEnd < p flushes", func(t *testing.T, s *Slot, emit Emit) {
			s.Flush(3, emit)
		}, 1},
		{"lastEnd == p does not", func(t *testing.T, s *Slot, emit Emit) {
			s.Flush(2, emit)
		}, 0},
		{"unregister flushes first", func(t *testing.T, s *Slot, emit Emit) {
			s.Unregister(3, "q", false, nil, emit)
			if _, held := s.Rank("q"); held || s.FilterWidth() != 0 || s.Eng.Graph().NumEdges() != 0 {
				t.Errorf("after unregister: held=%v width=%d edges=%d, want an empty slot", held, s.FilterWidth(), s.Eng.Graph().NumEdges())
			}
		}, 1},
		{"unregister of a query not held is a no-op", func(t *testing.T, s *Slot, emit Emit) {
			s.Unregister(3, "other", false, nil, emit)
			if s.FilterWidth() != 2 {
				t.Errorf("filter width %d after a no-op unregister, want 2", s.FilterWidth())
			}
		}, 0},
		{"handover flushes first", func(t *testing.T, s *Slot, emit Emit) {
			if _, _, err := s.HandOver(3, "q", false, nil, emit); err != nil {
				t.Fatal(err)
			}
			if _, held := s.Rank("q"); held || s.FilterWidth() != 0 || s.Eng.Graph().NumEdges() != 0 {
				t.Errorf("after handover: held=%v width=%d edges=%d, want an empty slot", held, s.FilterWidth(), s.Eng.Graph().NumEdges())
			}
		}, 1},
		{"checkpoint does not, and restores to the same slot", func(t *testing.T, s *Slot, emit Emit) {
			img, err := s.Image()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeSnapshotImage(img.Encode())
			if err != nil {
				t.Fatal(err)
			}
			restored, err := decoded.Slot()
			if err != nil {
				t.Fatal(err)
			}
			if rank, held := restored.Rank("q"); !held || rank != 7 || restored.LastEnd() != 2 || restored.FilterWidth() != 2 {
				t.Fatalf("restored slot: rank %d held %v lastEnd %d width %d", rank, held, restored.LastEnd(), restored.FilterWidth())
			}
			flushed := false
			restored.Flush(3, func(uint64, []core.NamedMatch) { flushed = true })
			if !flushed {
				t.Error("the restored slot does not flush at p = 3: the barrier was not carried")
			}
		}, 0},
		{"failed transplant leaves no query and the old filter", func(t *testing.T, s *Slot, emit Emit) {
			err := s.Register(SlotRegister{
				Name: "q2", Query: query.NewPath("ip", "UDP", "TCP"), Rank: 8,
				Config:   core.Config{Strategy: core.StrategySingle, Leaves: [][]int{{0}, {1}}},
				Types:    []string{"GRE", "TCP", "UDP"},
				Backfill: []stream.Edge{slotEdge("x", "y", "UDP", 3)},
				State:    []byte("SGSNAPM corrupt"), // does not decode
			})
			if err == nil {
				t.Fatal("a registration whose state does not decode succeeded")
			}
			if _, held := s.Rank("q2"); held || s.Eng.QueryEngine("q2") != nil {
				t.Error("the query half-exists after a failed transplant")
			}
			if s.FilterWidth() != 2 || s.Eng.Graph().NumEdges() != 2 {
				t.Errorf("filter width %d, %d edges after the rollback; want 2 and 2 (the backfill trimmed)", s.FilterWidth(), s.Eng.Graph().NumEdges())
			}
			s.ProcessEdges(3, []stream.Edge{slotEdge("x", "y", "UDP", 4)})
			if s.LastEnd() != 2 {
				t.Errorf("lastEnd moved to %d on a UDP edge: the widened filter survived the rollback", s.LastEnd())
			}
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := laggingSlot(t)
			flushes := 0
			tc.op(t, s, func(seq uint64, nms []core.NamedMatch) {
				flushes++
				if seq != 2 {
					t.Errorf("flush reported at seq %d, want lastEnd = 2", seq)
				}
			})
			if flushes != tc.flushes {
				t.Fatalf("%d flushes, want %d", flushes, tc.flushes)
			}
		})
	}
}

// sig canonicalizes a resolved match: the query plus its bound edges.
func sig(name string, edges []core.PortableMatchEdge) string {
	out := name
	for _, e := range edges {
		out += fmt.Sprintf("|%d:%s>%s:%s@%d", e.QueryEdge, e.Src, e.Dst, e.Type, e.TS)
	}
	return out
}

// TestSlotHandOver is the source half of a migration on the slot
// engine: a query the slot does not hold is refused with the slot
// untouched; a held one flushes while still held, and its state then
// registers on a second slot, after which the two slots together report
// exactly the serial engine's matches.
func TestSlotHandOver(t *testing.T) {
	t.Run("not held", func(t *testing.T) {
		s := laggingSlot(t)
		flushes := 0
		rank, state, err := s.HandOver(3, "other", false, nil, func(uint64, []core.NamedMatch) { flushes++ })
		if err == nil || state != nil || rank != 0 {
			t.Fatalf("handover of a query the slot does not hold: rank %d, %d state bytes, err %v", rank, len(state), err)
		}
		if _, held := s.Rank("q"); !held || flushes != 0 || s.FilterWidth() != 2 || s.Eng.Graph().NumEdges() != 2 || s.LastEnd() != 2 {
			t.Fatalf("slot changed by a refused handover: q held %v, %d flushes, width %d, %d edges, lastEnd %d",
				held, flushes, s.FilterWidth(), s.Eng.Graph().NumEdges(), s.LastEnd())
		}
	})

	t.Run("flush, then state", func(t *testing.T) {
		s := laggingSlot(t)
		flushes := 0
		rank, state, err := s.HandOver(3, "q", false, nil, func(seq uint64, _ []core.NamedMatch) {
			flushes++
			if _, held := s.Rank("q"); !held {
				t.Error("the flush ran after the query was removed")
			}
		})
		if err != nil || rank != 7 || flushes != 1 {
			t.Fatalf("handover: rank %d, %d flushes, err %v; want rank 7 and one flush", rank, flushes, err)
		}
		eng, err := persist.LoadMulti(bytes.NewReader(state))
		if err != nil {
			t.Fatal(err)
		}
		for leaf, vs := range eng.QueryEngine("q").PendingRetro() {
			if len(vs) != 0 {
				t.Errorf("leaf %d: the state carries %d repairs the flush already ran", leaf, len(vs))
			}
		}
	})

	t.Run("state registers on a second slot", func(t *testing.T) {
		const window = 40
		rng := rand.New(rand.NewSource(5))
		types := []string{"GRE", "TCP", "UDP", "ICMP"}
		edges := make([]stream.Edge, 600)
		for i := range edges {
			edges[i] = slotEdge(fmt.Sprintf("h%d", rng.Intn(8)), fmt.Sprintf("h%d", rng.Intn(8)), types[rng.Intn(len(types))], int64(i+1))
		}
		queries := []struct {
			name  string
			q     *query.Graph
			cfg   core.Config
			types []string
		}{
			{"q", query.NewPath("ip", "GRE", "TCP"), core.Config{Strategy: core.StrategySingleLazy, Leaves: [][]int{{0}, {1}}}, []string{"GRE", "TCP"}},
			{"r", query.NewPath("ip", "UDP", "TCP"), core.Config{Strategy: core.StrategySingle, Leaves: [][]int{{0}, {1}}}, []string{"GRE", "TCP", "UDP"}},
		}

		serial := core.NewMulti(core.MultiConfig{Window: window})
		var want []string
		for _, qr := range queries {
			if err := serial.Register(qr.name, qr.q, qr.cfg); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range edges {
			for _, nm := range serial.ProcessEdge(e) {
				_, pe := core.AppendResolved(serial.Graph(), serial.QueryEngine(nm.Query).Query(), nil, nil, nm.Match)
				want = append(want, sig(nm.Query, pe))
			}
		}
		if len(want) == 0 {
			t.Fatal("the stream completes no match; the comparison is vacuous")
		}

		var got []string
		collect := func(s *Slot) Emit {
			return func(_ uint64, nms []core.NamedMatch) {
				for _, nm := range nms {
					_, pe, _ := s.AppendResolved(nil, nil, nm)
					got = append(got, sig(nm.Query, pe))
				}
			}
		}
		feed := func(s *Slot, lo, hi int) {
			for ; lo < hi; lo += 7 {
				batch := edges[lo:min(lo+7, hi)]
				for i, nms := range s.ProcessEdges(uint64(lo), batch) {
					collect(s)(uint64(lo+i), nms)
				}
			}
		}

		src := NewSlot(core.NewMulti(core.MultiConfig{Window: window}), false)
		for i, qr := range queries {
			if err := src.Register(SlotRegister{Name: qr.name, Query: qr.q, Config: qr.cfg, Rank: i, Types: qr.types}); err != nil {
				t.Fatal(err)
			}
		}
		const cut = 331
		feed(src, 0, cut)
		rank, state, err := src.HandOver(cut, "q", false, []string{"TCP", "UDP"}, collect(src))
		if err != nil {
			t.Fatal(err)
		}
		dst := NewSlot(core.NewMulti(core.MultiConfig{Window: window}), false)
		var backfill []stream.Edge
		for _, e := range edges[:cut] {
			if (e.Type == "GRE" || e.Type == "TCP") && e.TS >= edges[cut-1].TS-window+1 {
				backfill = append(backfill, e)
			}
		}
		if err := dst.Register(SlotRegister{Name: "q", Rank: rank, Types: []string{"GRE", "TCP"}, Backfill: backfill, State: state}); err != nil {
			t.Fatal(err)
		}
		if got, held := dst.Rank("q"); !held || got != 0 {
			t.Fatalf("target holds q: %v at rank %d, want rank 0", held, got)
		}
		feed(src, cut, len(edges))
		feed(dst, cut, len(edges))
		src.Flush(uint64(len(edges)), collect(src))
		dst.Flush(uint64(len(edges)), collect(dst))

		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("source and target report %d matches together, the serial engine %d", len(got), len(want))
		}
	})
}
