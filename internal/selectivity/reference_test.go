package selectivity

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// collState is a collector's whole state keyed by names, so that two
// collectors whose interners assigned different IDs compare equal with
// reflect.DeepEqual. Zero counts are left out: a type or shape that was
// seen and fully removed is the same as one never seen.
type collState struct {
	EdgeTotal, PathTotal int64
	Edges                map[string]int64
	Paths                map[[2]string]int64         // the two ends as "type(dir)", ordered
	Verts                map[string]map[string]int64 // vertex -> "type(dir)" -> incident count
}

func newCollState(edgeTotal, pathTotal int64) *collState {
	return &collState{
		EdgeTotal: edgeTotal, PathTotal: pathTotal,
		Edges: make(map[string]int64),
		Paths: make(map[[2]string]int64),
		Verts: make(map[string]map[string]int64),
	}
}

func endName(types *graph.Interner, dt uint32) string {
	t, d := splitDirType(dt)
	return fmt.Sprintf("%s(%s)", types.Name(t), d)
}

func (s *collState) path(types *graph.Interner, k PathKey, n int64) {
	a, b := endName(types, k.A), endName(types, k.B)
	if a > b {
		a, b = b, a
	}
	s.Paths[[2]string{a, b}] += n
}

func (s *collState) incident(types *graph.Interner, vertex string, dt uint32, n int64) {
	if s.Verts[vertex] == nil {
		s.Verts[vertex] = make(map[string]int64)
	}
	s.Verts[vertex][endName(types, dt)] = n
}

func (c *Collector) state() *collState {
	s := newCollState(c.edgeTotal, c.pathTotal)
	for t, n := range c.edgeCount {
		if n != 0 {
			s.Edges[c.types.Name(uint32(t))] = n
		}
	}
	c.eachPath(func(k PathKey, n int64) { s.path(c.types, k, n) })
	for name, id := range c.vertIDs {
		for _, inc := range c.perVertex[id] {
			s.incident(c.types, name, inc.dt, inc.n)
		}
	}
	return s
}

func (c *refCollector) state() *collState {
	s := newCollState(c.edgeTotal, c.pathTotal)
	for t, n := range c.edgeCount {
		if n != 0 {
			s.Edges[c.types.Name(t)] = n
		}
	}
	for k, n := range c.pathCount {
		s.path(c.types, k, n)
	}
	for name, id := range c.vertIDs {
		for dt, n := range c.perVertex[id] {
			s.incident(c.types, name, dt, n)
		}
	}
	return s
}

// snapStream generates a deterministic mixed-type edge stream without
// importing datagen (which itself depends on this package).
func snapStream(n int) []stream.Edge {
	types := []string{"TCP", "UDP", "ICMP"}
	out := make([]stream.Edge, n)
	for i := range out {
		out[i] = stream.Edge{
			Src: fmt.Sprintf("h%d", (i*7)%40), SrcLabel: "host",
			Dst: fmt.Sprintf("h%d", (i*13+5)%40), DstLabel: "host",
			Type: types[(i*3)%len(types)], TS: int64(i),
		}
	}
	return out
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
// states, and a deep-equal state — per-vertex counters included — from
// the batch form of Algorithm 5 (FromGraph) over the surviving edges.
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
			if step++; step%1500 == 0 && !reflect.DeepEqual(c.state(), ref.state()) {
				t.Fatalf("seed %d step %d: state diverged from the reference", seed, step)
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
		for i := 0; i < nTypes; i++ {
			t1 := fmt.Sprintf("t%03d", i)
			if got, want := c.EdgeFrequency(t1), ref.EdgeFrequency(t1); got != want {
				t.Fatalf("seed %d: EdgeFrequency(%s) = %d, reference %d", seed, t1, got, want)
			}
			for j := i; j < nTypes; j++ {
				t2 := fmt.Sprintf("t%03d", j)
				for _, d1 := range dirs {
					for _, d2 := range dirs {
						want := ref.PathFrequency(t1, d1, t2, d2)
						if got := c.PathFrequency(t1, d1, t2, d2); got != want {
							t.Fatalf("seed %d: PathFrequency(%s %v, %s %v) = %d, reference %d", seed, t1, d1, t2, d2, got, want)
						}
					}
				}
			}
		}
		if !reflect.DeepEqual(c.state(), ref.state()) {
			t.Fatalf("seed %d: final state diverged from the reference", seed)
		}

		// The batch form of Algorithm 5 over the surviving edges. Its
		// interner follows the graph's, whose order differs from the
		// stream's; the states are keyed by name.
		g := graph.New()
		for _, e := range live {
			g.AddEdgeNamed(e.Src, "ip", e.Dst, "ip", e.Type, e.TS)
		}
		batch := FromGraph(g.ViewTypes(graph.UniversalTypes()), math.MinInt64)
		if !reflect.DeepEqual(batch.state(), ref.state()) {
			t.Fatalf("seed %d: batch (%d edges, %d paths, %d shapes) vs incremental (%d, %d, %d)", seed,
				batch.EdgeTotal(), batch.PathTotal(), batch.UniquePathShapes(), c.EdgeTotal(), c.PathTotal(), c.UniquePathShapes())
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
