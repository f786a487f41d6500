package selectivity

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"streamgraph/internal/graph"
	"streamgraph/internal/stream"
)

// refCollector is the map-based collector the array kernel replaced,
// kept as the reference implementation: one Counter per vertex, path and
// edge histograms as hash tables keyed by interned IDs. Valid streams
// only (Remove of an edge previously added).
type refCollector struct {
	types     *graph.Interner
	vertIDs   map[string]int32
	perVertex []Counter[uint32]
	edgeCount Counter[uint32]
	edgeTotal int64
	pathCount Counter[PathKey]
	pathTotal int64
}

func newRefCollector() *refCollector {
	return &refCollector{
		types:     graph.NewInterner(),
		vertIDs:   make(map[string]int32),
		edgeCount: make(Counter[uint32]),
		pathCount: make(Counter[PathKey]),
	}
}

func (c *refCollector) vertex(name string) int32 {
	if id, ok := c.vertIDs[name]; ok {
		return id
	}
	id := int32(len(c.perVertex))
	c.vertIDs[name] = id
	c.perVertex = append(c.perVertex, make(Counter[uint32]))
	return id
}

func (c *refCollector) Add(e stream.Edge) {
	t := c.types.Intern(e.Type)
	c.edgeCount.Update(t, 1)
	c.edgeTotal++
	c.addIncident(c.vertex(e.Src), dirType(t, Out))
	c.addIncident(c.vertex(e.Dst), dirType(t, In))
}

func (c *refCollector) addIncident(v int32, dt uint32) {
	cv := c.perVertex[v]
	for existing, n := range cv {
		c.pathCount.Update(makePathKey(dt, existing), n)
		c.pathTotal += n
	}
	cv.Update(dt, 1)
}

func (c *refCollector) Remove(e stream.Edge) {
	t, _ := c.types.Lookup(e.Type)
	c.edgeCount.Update(t, -1)
	c.edgeTotal--
	c.removeIncident(c.vertex(e.Src), dirType(t, Out))
	c.removeIncident(c.vertex(e.Dst), dirType(t, In))
}

func (c *refCollector) removeIncident(v int32, dt uint32) {
	cv := c.perVertex[v]
	cv.Update(dt, -1)
	if cv[dt] == 0 {
		delete(cv, dt)
	}
	for existing, n := range cv {
		k := makePathKey(dt, existing)
		c.pathCount.Update(k, -n)
		if c.pathCount[k] == 0 {
			delete(c.pathCount, k)
		}
		c.pathTotal -= n
	}
}

func (c *refCollector) EdgeFrequency(etype string) int64 {
	t, ok := c.types.Lookup(etype)
	if !ok {
		return 0
	}
	return c.edgeCount.Count(t)
}

func (c *refCollector) PathFrequency(t1 string, d1 Dir, t2 string, d2 Dir) int64 {
	a, ok1 := c.types.Lookup(t1)
	b, ok2 := c.types.Lookup(t2)
	if !ok1 || !ok2 {
		return 0
	}
	return c.pathCount.Count(makePathKey(dirType(a, d1), dirType(b, d2)))
}

func (c *refCollector) Snapshot() *CollectorState {
	s := &CollectorState{EdgeTotal: c.edgeTotal, PathTotal: c.pathTotal}
	for t, n := range c.edgeCount {
		s.Edges = append(s.Edges, TypeCount{Type: c.types.Name(t), N: n})
	}
	sort.Slice(s.Edges, func(i, j int) bool { return s.Edges[i].Type < s.Edges[j].Type })
	end := func(dt uint32) PathEnd {
		t, d := splitDirType(dt)
		return PathEnd{Type: c.types.Name(t), Dir: d}
	}
	for k, n := range c.pathCount {
		s.Paths = append(s.Paths, PathCountState{A: end(k.A), B: end(k.B), N: n})
	}
	endLess := func(a, b PathEnd) bool {
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.Dir < b.Dir
	}
	sort.Slice(s.Paths, func(i, j int) bool {
		a, b := s.Paths[i], s.Paths[j]
		if a.A != b.A {
			return endLess(a.A, b.A)
		}
		return endLess(a.B, b.B)
	})
	names := make([]string, 0, len(c.vertIDs))
	for name := range c.vertIDs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cv := c.perVertex[c.vertIDs[name]]
		if len(cv) == 0 {
			continue
		}
		vc := VertexCounts{Name: name}
		for dt, n := range cv {
			t, d := splitDirType(dt)
			vc.Incident = append(vc.Incident, DirTypeCount{Type: c.types.Name(t), Dir: d, N: n})
		}
		sort.Slice(vc.Incident, func(i, j int) bool {
			a, b := vc.Incident[i], vc.Incident[j]
			return a.Type < b.Type || a.Type == b.Type && a.Dir < b.Dir
		})
		s.Vertices = append(s.Vertices, vc)
	}
	return s
}

// randomOps drives fn with a randomised Add/Remove schedule over
// nTypes edge types (self loops included): an add of a fresh edge with
// probability 2/3, otherwise the removal of a random live one.
func randomOps(rng *rand.Rand, nTypes, nVerts, steps int, fn func(e stream.Edge, add bool)) (live []stream.Edge) {
	for i := 0; i < steps; i++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			e := stream.Edge{
				Src: fmt.Sprintf("v%d", rng.Intn(nVerts)), SrcLabel: "ip",
				Dst: fmt.Sprintf("v%d", rng.Intn(nVerts)), DstLabel: "ip",
				// Skewed: low type numbers dominate, high ones arrive late.
				Type: fmt.Sprintf("t%03d", rng.Intn(1+rng.Intn(nTypes))), TS: int64(i),
			}
			live = append(live, e)
			fn(e, true)
			continue
		}
		j := rng.Intn(len(live))
		e := live[j]
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		fn(e, false)
	}
	return live
}

// TestCollectorMatchesReference pins the array kernel to the map-based
// reference on randomised Add/Remove streams over 120 edge types — 240
// dirTypes, well past LSBench's 90, so the dense histograms grow many
// times mid-stream: equal frequencies for every shape, deep-equal
// snapshots, a Restore(Snapshot()) round trip, and agreement with the
// batch form of Algorithm 5 over the surviving edges.
func TestCollectorMatchesReference(t *testing.T) {
	const nTypes = 120
	dirs := []Dir{Out, In}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ref := NewCollector(), newRefCollector()
		step := 0
		live := randomOps(rng, nTypes, 60, 6000, func(e stream.Edge, add bool) {
			if add {
				c.Add(e)
				ref.Add(e)
			} else {
				c.Remove(e)
				ref.Remove(e)
			}
			if step++; step%1500 == 0 && !reflect.DeepEqual(c.Snapshot(), ref.Snapshot()) {
				t.Fatalf("seed %d step %d: snapshot diverged from the reference", seed, step)
			}
		})
		if c.Types().Len() < 100 {
			t.Fatalf("seed %d: only %d types interned, want >= 100", seed, c.Types().Len())
		}
		if c.EdgeTotal() != ref.edgeTotal || c.PathTotal() != ref.pathTotal {
			t.Fatalf("seed %d: totals (%d,%d) vs reference (%d,%d)", seed,
				c.EdgeTotal(), c.PathTotal(), ref.edgeTotal, ref.pathTotal)
		}
		if c.UniquePathShapes() != len(ref.pathCount) {
			t.Fatalf("seed %d: %d shapes vs reference %d", seed, c.UniquePathShapes(), len(ref.pathCount))
		}
		restored := c.Snapshot().Restore()
		for i := 0; i < nTypes; i++ {
			t1 := fmt.Sprintf("t%03d", i)
			if got, want := c.EdgeFrequency(t1), ref.EdgeFrequency(t1); got != want || restored.EdgeFrequency(t1) != want {
				t.Fatalf("seed %d: EdgeFrequency(%s) = %d (restored %d), reference %d", seed, t1, got, restored.EdgeFrequency(t1), want)
			}
			for j := i; j < nTypes; j++ {
				t2 := fmt.Sprintf("t%03d", j)
				for _, d1 := range dirs {
					for _, d2 := range dirs {
						want := ref.PathFrequency(t1, d1, t2, d2)
						if got := c.PathFrequency(t1, d1, t2, d2); got != want {
							t.Fatalf("seed %d: PathFrequency(%s %v, %s %v) = %d, reference %d", seed, t1, d1, t2, d2, got, want)
						}
						if got := restored.PathFrequency(t2, d2, t1, d1); got != want {
							t.Fatalf("seed %d: restored PathFrequency(%s %v, %s %v) = %d, reference %d", seed, t2, d2, t1, d1, got, want)
						}
					}
				}
			}
		}
		if !reflect.DeepEqual(c.Snapshot(), ref.Snapshot()) {
			t.Fatalf("seed %d: final snapshot diverged from the reference", seed)
		}
		// A path key orders its two ends by interned ID, and Restore
		// interns in name order, so the first round trip may reorder
		// Paths; from there on the snapshot is a fixed point.
		again := restored.Snapshot()
		if !reflect.DeepEqual(again.Restore().Snapshot(), again) {
			t.Fatalf("seed %d: Restore(Snapshot()) of a restored collector is not a fixed point", seed)
		}
		if restored.EdgeTotal() != c.EdgeTotal() || restored.PathTotal() != c.PathTotal() ||
			restored.AvgDegreeEstimate() != c.AvgDegreeEstimate() {
			t.Fatalf("seed %d: restored totals or average degree differ", seed)
		}

		// The batch form of Algorithm 5 over the surviving edges.
		g := graph.New()
		for _, e := range live {
			g.AddEdgeNamed(e.Src, "ip", e.Dst, "ip", e.Type, e.TS)
		}
		batch, total := ComputeFromGraph(g)
		if total != c.PathTotal() || len(batch) != c.UniquePathShapes() {
			t.Fatalf("seed %d: batch (%d paths, %d shapes) vs incremental (%d, %d)", seed,
				total, len(batch), c.PathTotal(), c.UniquePathShapes())
		}
		for k, n := range batch {
			ta, da := splitDirType(k.A)
			tb, db := splitDirType(k.B)
			if got := c.PathFrequency(g.Types().Name(ta), da, g.Types().Name(tb), db); got != n {
				t.Fatalf("seed %d: shape %v: batch %d vs incremental %d", seed, k, n, got)
			}
		}
	}
}

// TestCollectorAddAllocFree is the steady-state gate: once both
// endpoints, the type and the (endpoint, dirType) pairs are known, Add
// touches only existing array cells.
func TestCollectorAddAllocFree(t *testing.T) {
	edges := snapStream(400)
	c := NewCollector()
	c.AddAll(edges)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(edges[i%len(edges)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Collector.Add allocates %.1f times per edge at steady state, want 0", allocs)
	}
}
