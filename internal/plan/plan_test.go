package plan

import (
	"math"
	"math/rand"
	"testing"

	"streamgraph/internal/datagen"
	"streamgraph/internal/decompose"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
)

// trainedCollector returns exact statistics over a deterministic netflow
// sample.
func trainedCollector(t testing.TB, edges int) *selectivity.Collector {
	t.Helper()
	c := selectivity.NewCollector()
	c.AddAll(datagen.Netflow(datagen.NetflowConfig{Edges: edges, Hosts: edges / 10, Seed: 23}))
	return c
}

func newPlanner(t testing.TB) *Planner {
	return &Planner{Stats: trainedCollector(t, 20000), AvgDegree: 6}
}

func pathQuery(types ...string) *query.Graph { return query.NewPath("ip", types...) }

func TestPrimitivesEnumeration(t *testing.T) {
	p := newPlanner(t)
	q := pathQuery("TCP", "UDP", "ICMP") // 3 edges, 4 vertices
	prims, err := p.Primitives(q)
	if err != nil {
		t.Fatal(err)
	}
	// 3 single edges + 2 adjacent pairs (0-1, 1-2); the (0,2) pair shares
	// no vertex.
	singles, pairs := 0, 0
	for _, pr := range prims {
		switch len(pr.Edges) {
		case 1:
			singles++
		case 2:
			pairs++
		default:
			t.Fatalf("unexpected primitive size %d", len(pr.Edges))
		}
	}
	if singles != 3 || pairs != 2 {
		t.Fatalf("got %d singles, %d pairs; want 3 and 2", singles, pairs)
	}
}

func TestValidateDecomposition(t *testing.T) {
	q := pathQuery("TCP", "UDP", "ICMP")
	for _, tc := range []struct {
		name   string
		leaves [][]int
		ok     bool
	}{
		{"single cover", [][]int{{0}, {1}, {2}}, true},
		{"pair then single", [][]int{{0, 1}, {2}}, true},
		{"frontier violation", [][]int{{0}, {2}, {1}}, false},
		{"duplicate edge", [][]int{{0}, {0}, {1}, {2}}, false},
		{"missing edge", [][]int{{0}, {1}}, false},
		{"empty leaf", [][]int{{0}, {}, {1}, {2}}, false},
		{"out of range", [][]int{{0}, {1}, {7}}, false},
		{"empty decomposition", nil, false},
	} {
		err := ValidateDecomposition(q, tc.leaves)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestScoreLeavesMatchesManualModel(t *testing.T) {
	p := newPlanner(t)
	q := pathQuery("TCP", "UDP")
	sc, err := p.ScoreLeaves(q, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats
	n := float64(st.EdgeTotal())
	f0 := st.EdgeSelectivity("TCP") * n
	f1 := st.EdgeSelectivity("UDP") * n
	// The join of the two single-edge leaves is the measured wedge count
	// of the TCP(in)-UDP(out) shape at the shared center vertex.
	wedge := st.PathSelectivity("TCP", selectivity.In, "UDP", selectivity.Out) * float64(st.PathTotal())
	wantWork := 1 + math.Min(1, f0/n) + (f0+f1+wedge)/n
	wantSpace := f0 + f1 + 2*wedge
	if math.Abs(sc.Work-wantWork) > 1e-9 {
		t.Errorf("Work = %v, want %v", sc.Work, wantWork)
	}
	if math.Abs(sc.Space-wantSpace) > 1e-9 {
		t.Errorf("Space = %v, want %v", sc.Space, wantSpace)
	}
	wantSel := st.EdgeSelectivity("TCP") * st.EdgeSelectivity("UDP")
	if math.Abs(sc.ExpectedSel-wantSel) > 1e-12 {
		t.Errorf("ExpectedSel = %v, want %v", sc.ExpectedSel, wantSel)
	}
}

func TestScoreLeavesRejectsNonPrimitive(t *testing.T) {
	p := newPlanner(t)
	q := pathQuery("TCP", "UDP", "ICMP")
	// {0,1,2} is a 3-edge path, not an admissible primitive.
	if _, err := p.ScoreLeaves(q, [][]int{{0, 1, 2}}); err == nil {
		t.Fatal("3-edge path accepted as a primitive")
	}
}

// bruteForceBest enumerates every valid (partition, order) decomposition
// recursively and returns the minimum objective.
func bruteForceBest(t *testing.T, p *Planner, q *query.Graph) float64 {
	t.Helper()
	prims, err := p.Primitives(q)
	if err != nil {
		t.Fatal(err)
	}
	full := uint32(1)<<uint(len(q.Edges)) - 1
	requireFrontier := q.Connected()
	best := math.Inf(1)
	var rec func(mask uint32, verts uint64, chain []Primitive)
	rec = func(mask uint32, verts uint64, chain []Primitive) {
		if mask == full {
			leaves := Leaves(chain)
			sc, err := p.ScoreLeaves(q, leaves)
			if err != nil {
				t.Fatalf("brute force produced invalid leaves %v: %v", leaves, err)
			}
			if obj := p.objective(sc); obj < best {
				best = obj
			}
			return
		}
		for _, pr := range prims {
			if pr.mask&mask != 0 {
				continue
			}
			if mask != 0 && requireFrontier && pr.verts&verts == 0 {
				continue
			}
			rec(mask|pr.mask, verts|pr.verts, append(chain, pr))
		}
	}
	rec(0, 0, nil)
	return best
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	p := newPlanner(t)
	queries := []*query.Graph{
		pathQuery("TCP"),
		pathQuery("TCP", "UDP"),
		pathQuery("ESP", "TCP", "ICMP"),
		pathQuery("ESP", "TCP", "ICMP", "GRE"),
		datagen.RandomBinaryTreeQuery(rand.New(rand.NewSource(5)), datagen.NetflowProtocols, 5, "ip"),
	}
	for qi, q := range queries {
		leaves, score, err := p.Optimal(q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if err := ValidateDecomposition(q, leaves); err != nil {
			t.Fatalf("query %d: optimal produced invalid decomposition: %v", qi, err)
		}
		got := p.objective(score)
		want := bruteForceBest(t, p, q)
		if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Errorf("query %d: DP objective %v != brute force %v", qi, got, want)
		}
		// The reported score must agree with re-scoring the leaves.
		rescored, err := p.ScoreLeaves(q, leaves)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if math.Abs(p.objective(rescored)-got) > 1e-6*math.Max(1, got) {
			t.Errorf("query %d: reported score %v disagrees with re-score %v", qi, got, p.objective(rescored))
		}
	}
}

func TestOptimalNeverWorseThanGreedy(t *testing.T) {
	c := trainedCollector(t, 20000)
	p := &Planner{Stats: c, AvgDegree: 6}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 20; i++ {
		q := datagen.RandomPathQuery(rng, datagen.NetflowProtocols, 3+rng.Intn(3), "ip")
		leaves, score, err := p.Optimal(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateDecomposition(q, leaves); err != nil {
			t.Fatalf("invalid optimal decomposition: %v", err)
		}
		for _, greedy := range greedyCandidates(t, q, c) {
			gs, err := p.ScoreLeaves(q, greedy)
			if err != nil {
				continue // greedy may emit non-frontier orders for odd queries
			}
			if p.objective(score) > p.objective(gs)*(1+1e-9) {
				t.Errorf("query %d: optimal %v worse than greedy %v", i, p.objective(score), p.objective(gs))
			}
		}
	}
}

func greedyCandidates(t *testing.T, q *query.Graph, c *selectivity.Collector) [][][]int {
	t.Helper()
	var out [][][]int
	if single, err := decompose.SingleDecompose(q, c); err == nil {
		out = append(out, single)
	}
	if path, _, err := decompose.PathDecompose(q, c); err == nil {
		out = append(out, path)
	}
	return out
}

func TestOptimalRejectsOversizedQuery(t *testing.T) {
	p := newPlanner(t)
	p.MaxDPEdges = 3
	q := pathQuery("TCP", "UDP", "ICMP", "GRE")
	if _, _, err := p.Optimal(q); err == nil {
		t.Fatal("Optimal accepted query beyond MaxDPEdges")
	}
}

func TestOptimalPrefersRarePrimitiveFirst(t *testing.T) {
	// Build statistics where ESP is vanishingly rare and TCP dominant;
	// the optimal first leaf must contain the ESP edge (Theorem 1).
	c := selectivity.NewCollector()
	c.AddAll(datagen.Netflow(datagen.NetflowConfig{Edges: 30000, Hosts: 3000, Seed: 9}))
	p := &Planner{Stats: c, AvgDegree: 6}
	q := pathQuery("TCP", "TCP", "ESP")
	leaves, _, err := p.Optimal(q)
	if err != nil {
		t.Fatal(err)
	}
	hasESP := false
	for _, ei := range leaves[0] {
		if q.Edges[ei].Type == "ESP" {
			hasESP = true
		}
	}
	if !hasESP {
		t.Fatalf("first leaf %v does not contain the rare ESP edge; leaves=%v", leaves[0], leaves)
	}
}

func TestBestDispatches(t *testing.T) {
	p := newPlanner(t)
	p.MaxDPEdges = 3
	small := pathQuery("TCP", "UDP")
	if _, _, err := p.Best(small, GeneticConfig{}); err != nil {
		t.Fatalf("Best on small query: %v", err)
	}
	big := pathQuery("TCP", "UDP", "ICMP", "GRE", "ESP")
	leaves, _, err := p.Best(big, GeneticConfig{Generations: 10, Population: 16})
	if err != nil {
		t.Fatalf("Best on big query: %v", err)
	}
	if err := ValidateDecomposition(big, leaves); err != nil {
		t.Fatalf("Best produced invalid decomposition: %v", err)
	}
}
