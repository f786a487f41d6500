package core

import (
	"fmt"
	"testing"

	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// hubQuery is the shape of bench's ls_tree_dense query: an org with the
// forum it hosts, a student and two employees.
const hubQuery = `v v0 forum
v v1 org
v v2 user
v v3 user
v v4 user
e v0 v1 hostedBy
e v2 v1 studyAt
e v3 v1 worksAt
e v4 v1 worksAt
`

// hubFeed repeats a cycle of edges around one hub org: the hub's forum,
// then its students, then its employees, then filler edges of a type the
// query does not hold. Cycle k takes the ticks k·hubPeriod, +1, +2, …,
// one per edge. Under a window of hubPeriod every name is in the window
// once, so the forum edge completes students × employees ×
// (employees-1) matches; and the sweep clock, whose step hubPeriod/32 is
// longer than a cycle, sweeps once a cycle, at its first edge.
type hubFeed struct {
	cycle []stream.Edge
	i     int
}

// hubPeriod is the ticks from one cycle's start to the next, and the
// window the hub tests run under.
const hubPeriod = 32 * 40

// hubCycle returns a cycle of the given numbers of students and
// employees, padded with filler to length n.
func hubCycle(students, employees, n int) []stream.Edge {
	e := func(src, label, typ string) stream.Edge {
		return stream.Edge{Src: src, SrcLabel: label, Dst: "hub", DstLabel: "org", Type: typ}
	}
	cycle := []stream.Edge{e("f0", "forum", "hostedBy")}
	for i := 0; i < students; i++ {
		cycle = append(cycle, e(fmt.Sprintf("s%d", i), "user", "studyAt"))
	}
	for i := 0; i < employees; i++ {
		cycle = append(cycle, e(fmt.Sprintf("w%d", i), "user", "worksAt"))
	}
	for len(cycle) < n {
		cycle = append(cycle, e("x", "user", "likes"))
	}
	return cycle
}

func (h *hubFeed) next() stream.Edge {
	n := len(h.cycle)
	se := h.cycle[h.i%n]
	se.TS = int64(h.i/n)*hubPeriod + int64(h.i%n)
	h.i++
	return se
}

func (h *hubFeed) fill(batch []stream.Edge) {
	for j := range batch {
		batch[j] = h.next()
	}
}

// resultCap is the capacity of the engine's result headers.
func resultCap(e *Engine) int { return cap(e.res.Matches) }

// TestBurstEmitAllocFree gates the emit path where it bursts, the way
// ls_tree_dense does around a hub org: the hub's forum edge completes
// 4 × 34 × 33 = 4488 matches, more than the match pool keeps (4096), and
// the cycle as a whole some 18 000. The engine sweeps once a cycle, so
// every sweep interval holds a burst. Once warm, a cycle of ProcessEdge
// calls and a ProcessBatch of one cycle must allocate nothing: root joins
// write into the engine's result slab, which the next call truncates, so
// no complete match passes through the pool, and the slab is never cut
// back only to grow again. When the burst subsides, the slab must not
// keep its size: two sweeps after the last burst left the window, its
// capacity is under eight times the largest call since.
func TestBurstEmitAllocFree(t *testing.T) {
	q, err := query.Parse(hubQuery)
	if err != nil {
		t.Fatal(err)
	}
	burst := hubCycle(4, 34, 39)
	quiet := hubCycle(4, 3, len(burst))
	newEngine := func(t *testing.T) *Engine {
		eng, err := New(q, Config{Strategy: StrategySingle, Window: hubPeriod, Leaves: [][]int{{0}, {1}, {2}, {3}}})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	// subside feeds quiet cycles through call, which takes perCycle calls
	// a cycle: one cycle for the burst to leave the window, then four
	// more (four sweeps), and checks the slab against the largest call of
	// those four.
	subside := func(t *testing.T, eng *Engine, perCycle int, call func() int) {
		t.Helper()
		grown := resultCap(eng)
		for i := 0; i < perCycle; i++ {
			call()
		}
		most := 0
		for i := 0; i < 4*perCycle; i++ {
			most = max(most, call())
		}
		if most == 0 || grown <= 8*most {
			t.Fatalf("burst grew the slab to %d, quiet calls complete up to %d: the check would be vacuous", grown, most)
		}
		c := resultCap(eng)
		if c >= 8*most {
			t.Errorf("slab holds %d after the burst subsided, calls since complete up to %d: not cut back", c, most)
		}
		t.Logf("slab %d after the burst, %d after it subsided; quiet calls complete up to %d", grown, c, most)
	}

	t.Run("Engine.ProcessEdge", func(t *testing.T) {
		eng := newEngine(t)
		feed := &hubFeed{cycle: burst}
		most := 0
		for i := 0; i < 8*len(burst); i++ {
			most = max(most, len(eng.ProcessEdge(feed.next())))
		}
		if most <= 4096 {
			t.Fatalf("largest call completed %d matches, want a burst above the pool's 4096", most)
		}
		avg := mallocsPerRun(20, func() {
			for range burst {
				eng.ProcessEdge(feed.next())
			}
		})
		if avg != 0 {
			t.Errorf("ProcessEdge allocates %d allocs per cycle through bursts of %d matches, want 0", avg, most)
		}
		feed.cycle = quiet
		subside(t, eng, len(quiet), func() int { return len(eng.ProcessEdge(feed.next())) })
	})

	t.Run("Engine.ProcessBatch", func(t *testing.T) {
		eng := newEngine(t)
		feed := &hubFeed{cycle: burst}
		batch := make([]stream.Edge, len(burst))
		count := func() (n int) {
			feed.fill(batch)
			for _, ms := range eng.ProcessBatch(batch) {
				n += len(ms)
			}
			return n
		}
		for r := 0; r < 8; r++ {
			count()
		}
		avg := mallocsPerRun(20, func() {
			if n := count(); n <= 4096 {
				t.Fatalf("a batch completed %d matches, want a burst above the pool's 4096", n)
			}
		})
		if avg != 0 {
			t.Errorf("ProcessBatch allocates %d allocs/op through bursts, want 0", avg)
		}
		feed.cycle = quiet
		subside(t, eng, 1, count)
	})
}
