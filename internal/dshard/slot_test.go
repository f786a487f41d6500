package dshard

import (
	"testing"

	"streamgraph/internal/core"
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
// source-side removal and a checkpoint never do, and a registration
// whose transplant fails leaves no query and the old filter.
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
			s.Unregister(3, "q", false, false, nil, emit)
			if _, held := s.Rank("q"); held || s.FilterWidth() != 0 || s.Eng.Graph().NumEdges() != 0 {
				t.Errorf("after unregister: held=%v width=%d edges=%d, want an empty slot", held, s.FilterWidth(), s.Eng.Graph().NumEdges())
			}
		}, 1},
		{"unregister of a query not held is a no-op", func(t *testing.T, s *Slot, emit Emit) {
			s.Unregister(3, "other", false, false, nil, emit)
			if s.FilterWidth() != 2 {
				t.Errorf("filter width %d after a no-op unregister, want 2", s.FilterWidth())
			}
		}, 0},
		{"migrate-unregister does not", func(t *testing.T, s *Slot, emit Emit) {
			s.Unregister(3, "q", true, false, nil, emit)
			if _, held := s.Rank("q"); held {
				t.Error("query still held after a migrate-unregister")
			}
		}, 0},
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
				State:    core.NewMulti(core.MultiConfig{Window: 100}), // holds no "q2"
			})
			if err == nil {
				t.Fatal("transplant from an engine without the query succeeded")
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
