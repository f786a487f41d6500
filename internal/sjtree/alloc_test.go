package sjtree

import (
	"testing"

	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
)

// TestInsertHotPathAllocationFree pins the steady-state allocation
// count of the store at zero, sweeps included: once the slab has reached
// the window's size, an insert takes a slot an eviction freed, an append
// to a live bucket writes no map entry, and a sweep unlinks in place (the
// PR 2 baseline was 2 allocs/op here, 4 with Dedup; the PR 16 store paid
// a bucket-slice and a heap growth per drained bucket). The sweeps of an
// in-order stream must also stay near O(expired): at most 1.3 records
// scanned per record evicted.
func TestInsertHotPathAllocationFree(t *testing.T) {
	for _, dedup := range []struct {
		name string
		on   bool
	}{{"dedup=off", false}, {"dedup=on", true}} {
		t.Run(dedup.name, func(t *testing.T) {
			q := query.NewPath(query.Wildcard, "a", "b")
			const window, sweepEvery = 2000, 256
			tr, err := Build(q, [][]int{{0}, {1}}, window)
			if err != nil {
				t.Fatal(err)
			}
			tr.Dedup = dedup.on
			const warm, runs = 3 * window, 4000
			ms := make([]iso.Match, 0, warm+runs+8)
			for i := 0; i < cap(ms); i++ {
				// Every match distinct (fresh edge + timestamp); three in
				// four share one hot bucket (cut vertex 1), the rest get a
				// bucket of their own that lives and dies with them.
				cut := graph.VertexID(1)
				if i%4 == 0 {
					cut = graph.VertexID(10 + i)
				}
				ms = append(ms, benchLeafMatch(q, 0, graph.EdgeID(i), cut, 2, int64(i)))
			}
			i := 0
			step := func() {
				tr.Insert(0, ms[i], nil, nil)
				if i%sweepEvery == 0 {
					tr.ExpireBefore(int64(i) - window + 1)
				}
				i++
			}
			for i < warm {
				step()
			}
			if avg := testing.AllocsPerRun(runs, step); avg != 0 {
				t.Errorf("insert + sweep allocates %.2f allocs/op in steady state, want 0", avg)
			}
			st := tr.Stats()
			if st.Evicted == 0 || float64(st.ExpireScanned) > 1.3*float64(st.Evicted) {
				t.Errorf("sweeps scanned %d records to evict %d, want <= 1.3 per eviction", st.ExpireScanned, st.Evicted)
			}
			if st.Stored > window+sweepEvery {
				t.Errorf("%d matches stored, window %d swept every %d", st.Stored, window, sweepEvery)
			}
		})
	}
}

// TestJoinPathReusesPooledMatches pins that a steady-state
// join-and-store cycle with window expiry running allocates nothing: a
// join output takes the arrays the insert before it handed back, and
// the stored copies take slots the sweep freed. The PR 2 baseline paid
// 2 allocs per join output alone, plus join keys.
func TestJoinPathReusesPooledMatches(t *testing.T) {
	q := query.NewPath(query.Wildcard, "a", "b", "c")
	tr, err := Build(q, [][]int{{0}, {1}, {2}}, 64)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 1000
	const total = runs + 208
	left := make([]iso.Match, total)
	right := make([]iso.Match, total)
	for i := 0; i < total; i++ {
		cut := graph.VertexID(2)
		left[i] = benchLeafMatch(q, 0, graph.EdgeID(4*i), 1, cut, int64(i))
		right[i] = benchLeafMatch(q, 1, graph.EdgeID(4*i+1), cut, 3, int64(i))
	}
	// Leaf 0 stores; leaf 1 joins it at the internal node; expiry keeps
	// a sliding window of stored matches.
	step := func(i int) {
		tr.Insert(0, left[i], nil, nil)
		tr.Insert(1, right[i], nil, nil)
		tr.ExpireBefore(int64(i) - 64)
	}
	for i := 0; i < 200; i++ {
		step(i)
	}
	i := 200
	avg := testing.AllocsPerRun(runs, func() {
		step(i)
		i++
	})
	if avg != 0 {
		t.Errorf("join+store+expire cycle allocates %.2f allocs/op, want 0", avg)
	}
}

// TestExpireBeforeIsIncremental pins the O(expired) contract: a pass
// that expires nothing must not scan any stored match, and a pass that
// expires k matches of an in-order stream scans those k and at most what
// shares the last wheel bucket with them (under 1.3 per eviction).
func TestExpireBeforeIsIncremental(t *testing.T) {
	q := query.NewPath(query.Wildcard, "a", "b")
	const n = 500
	tr, err := Build(q, [][]int{{0}, {1}}, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// Distinct cut vertices: one singleton bucket per match.
		tr.Insert(0, benchLeafMatch(q, 0, graph.EdgeID(i), graph.VertexID(2*i), graph.VertexID(2*i+1), 1000+int64(i)), nil, nil)
	}
	if got := tr.Stats().ExpireScanned; got != 0 {
		t.Fatalf("ExpireScanned = %d before any expiry", got)
	}
	// No-expiry passes: nothing may be scanned, the first time (a walk of
	// the whole wheel) or the second (a walk of one bucket).
	for pass := 0; pass < 2; pass++ {
		if ev := tr.ExpireBefore(1000); ev != 0 {
			t.Fatalf("ExpireBefore(1000) evicted %d, want 0", ev)
		}
		if got := tr.Stats().ExpireScanned; got != 0 {
			t.Fatalf("no-expiry pass scanned %d stored matches, want 0", got)
		}
	}
	// Expire the oldest 101: those and at most a bucket's worth more may
	// be scanned.
	ev := tr.ExpireBefore(1101)
	if ev != 101 {
		t.Fatalf("ExpireBefore(1101) evicted %d, want 101", ev)
	}
	if got := tr.Stats().ExpireScanned; got < 101 || float64(got) > 1.3*101 {
		t.Fatalf("expiry scanned %d stored matches to evict 101, want 101..131", got)
	}
	if got := tr.StoredMatches(); got != n-101 {
		t.Fatalf("stored = %d, want %d", got, n-101)
	}
	// The same cutoff again finds every bucket's minimum at or above it.
	scanned := tr.Stats().ExpireScanned
	if ev := tr.ExpireBefore(1101); ev != 0 || tr.Stats().ExpireScanned != scanned {
		t.Fatalf("repeated cutoff evicted %d and scanned %d more", ev, tr.Stats().ExpireScanned-scanned)
	}
}
