package sketch

import (
	"math/rand"
	"testing"

	"streamgraph/internal/datagen"
	"streamgraph/internal/decompose"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

// newRand is shared by the package tests.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func netflowStream(t *testing.T, n int) []stream.Edge {
	t.Helper()
	return datagen.Netflow(datagen.NetflowConfig{Edges: n, Hosts: n / 10, Seed: 17})
}

func TestEstimatorEdgeHistogramExact(t *testing.T) {
	edges := netflowStream(t, 20000)
	exact := selectivity.NewCollector()
	est := NewEstimator(1<<14, 4, 1)
	for _, e := range edges {
		exact.Add(e)
		est.Add(e)
	}
	if est.EdgeTotal() != exact.EdgeTotal() {
		t.Fatalf("EdgeTotal %d != exact %d", est.EdgeTotal(), exact.EdgeTotal())
	}
	for _, p := range datagen.NetflowProtocols {
		if got, want := est.EdgeFrequency(p), exact.EdgeFrequency(p); got != want {
			t.Errorf("EdgeFrequency(%s) = %d, want %d", p, got, want)
		}
		if got, want := est.EdgeSelectivity(p), exact.EdgeSelectivity(p); got != want {
			t.Errorf("EdgeSelectivity(%s) = %v, want %v", p, got, want)
		}
	}
}

func TestEstimatorPathCountsUpperBoundAndClose(t *testing.T) {
	edges := netflowStream(t, 20000)
	exact := selectivity.NewCollector()
	est := NewEstimator(1<<16, 4, 1)
	for _, e := range edges {
		exact.Add(e)
		est.Add(e)
	}
	if est.PathTotal() < exact.PathTotal() {
		t.Fatalf("PathTotal %d undercounts exact %d", est.PathTotal(), exact.PathTotal())
	}
	// With a generously sized sketch the estimate should be within a few
	// percent of the truth overall.
	ratio := float64(est.PathTotal()) / float64(exact.PathTotal())
	if ratio > 1.10 {
		t.Fatalf("PathTotal overcount ratio %.4f exceeds 1.10", ratio)
	}
	// Per-shape: never undercount, and the dominant shapes stay accurate.
	for _, d1 := range []selectivity.Dir{selectivity.Out, selectivity.In} {
		for _, d2 := range []selectivity.Dir{selectivity.Out, selectivity.In} {
			for _, p1 := range datagen.NetflowProtocols {
				for _, p2 := range datagen.NetflowProtocols {
					got := est.PathFrequency(p1, d1, p2, d2)
					want := exact.PathFrequency(p1, d1, p2, d2)
					if got < want {
						t.Fatalf("PathFrequency(%s,%v,%s,%v) = %d undercounts %d", p1, d1, p2, d2, got, want)
					}
					if want > 10000 && float64(got) > 1.15*float64(want) {
						t.Errorf("head shape (%s,%v,%s,%v): est %d vs exact %d drifts >15%%", p1, d1, p2, d2, got, want)
					}
				}
			}
		}
	}
}

func TestEstimatorPreservesTopShapeRanking(t *testing.T) {
	edges := netflowStream(t, 30000)
	exact := selectivity.NewCollector()
	est := NewEstimator(1<<16, 4, 1)
	for _, e := range edges {
		exact.Add(e)
		est.Add(e)
	}
	top := func(h []selectivity.HistogramEntry, n int) map[string]bool {
		out := make(map[string]bool)
		for i := 0; i < n && i < len(h); i++ {
			out[h[i].Key] = true
		}
		return out
	}
	const k = 10
	exactTop := top(exact.PathHistogram(), k)
	estTop := top(est.PathHistogram(), k)
	overlap := 0
	for key := range estTop {
		if exactTop[key] {
			overlap++
		}
	}
	if overlap < k-2 {
		t.Fatalf("top-%d path shapes overlap only %d; estimator lost the head of the distribution", k, overlap)
	}
}

func TestEstimatorDrivesDecomposition(t *testing.T) {
	// The whole point of the sketch: decomposition driven by the
	// estimator should agree with one driven by exact statistics.
	edges := netflowStream(t, 30000)
	exact := selectivity.NewCollector()
	est := NewEstimator(1<<16, 4, 1)
	for _, e := range edges {
		exact.Add(e)
		est.Add(e)
	}
	q := datagen.RandomPathQuery(newRand(21), datagen.NetflowProtocols, 4, "ip")

	singleExact, err := decompose.SingleDecompose(q, exact)
	if err != nil {
		t.Fatal(err)
	}
	singleEst, err := decompose.SingleDecompose(q, est)
	if err != nil {
		t.Fatal(err)
	}
	if len(singleExact) != len(singleEst) {
		t.Fatalf("single decompositions differ in size: %v vs %v", singleExact, singleEst)
	}
	// 1-edge stats are exact in the estimator, so the orders must agree.
	for i := range singleExact {
		if singleExact[i][0] != singleEst[i][0] {
			t.Fatalf("single decomposition order differs: %v vs %v", singleExact, singleEst)
		}
	}

	pathExact, fbExact, err := decompose.PathDecompose(q, exact)
	if err != nil {
		t.Fatal(err)
	}
	pathEst, fbEst, err := decompose.PathDecompose(q, est)
	if err != nil {
		t.Fatal(err)
	}
	if fbExact != fbEst {
		t.Fatalf("fallback disagreement: exact=%v est=%v", fbExact, fbEst)
	}
	if len(pathExact) != len(pathEst) {
		t.Fatalf("path decompositions differ in size: %v vs %v", pathExact, pathEst)
	}
}

func TestEstimatorMemoryIndependentOfVertices(t *testing.T) {
	small := NewEstimator(1<<12, 4, 1)
	big := NewEstimator(1<<12, 4, 1)
	small.AddAll(datagen.Netflow(datagen.NetflowConfig{Edges: 2000, Hosts: 50, Seed: 5}))
	big.AddAll(datagen.Netflow(datagen.NetflowConfig{Edges: 2000, Hosts: 2000, Seed: 5}))
	// Identical sketch geometry, same #types: footprint must not grow
	// with the vertex count (modulo the tiny path-shape table).
	if diff := big.MemoryBytes() - small.MemoryBytes(); diff > 4096 {
		t.Fatalf("memory grew by %d bytes with 40x the vertices", diff)
	}
}

func TestEstimatorUnseenIsZero(t *testing.T) {
	est := NewEstimator(64, 2, 1)
	if est.EdgeSelectivity("nope") != 0 {
		t.Error("unseen edge type should have selectivity 0")
	}
	if est.PathSelectivity("a", selectivity.Out, "b", selectivity.In) != 0 {
		t.Error("empty estimator should report 0 path selectivity")
	}
	est.Add(stream.Edge{Src: "x", Dst: "y", Type: "a", TS: 1})
	if est.PathSelectivity("a", selectivity.Out, "nope", selectivity.In) != 0 {
		t.Error("path with unseen type should have selectivity 0")
	}
}

func TestNewEstimatorWithError(t *testing.T) {
	est, err := NewEstimatorWithError(0.001, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	est.Add(stream.Edge{Src: "x", Dst: "y", Type: "t", TS: 1})
	if est.EdgeTotal() != 1 {
		t.Fatal("estimator did not record the edge")
	}
	if _, err := NewEstimatorWithError(0, 0.5, 3); err == nil {
		t.Error("invalid epsilon accepted")
	}
}
