package core

import (
	"fmt"
	"slices"
	"testing"

	"streamgraph/internal/datagen"
	"streamgraph/internal/query"
)

// TestReferenceWorkloadBatch pins the one-query reference workload whose
// 87 matches the project's change history quotes: the first 8000 edges
// of netflow seed 1 (30000 edges, 4000 hosts), the wildcard 3-hop path
// UDP→ICMP→GRE, selectivities from the full stream's 20% prefix, window
// 2000 and a 20000-match search cap. Single, SingleLazy, Path and
// PathLazy, each edge at a time and in batches of 64 and 1024, must all
// find the 87 matches, completed by the same edges.
func TestReferenceWorkloadBatch(t *testing.T) {
	full := datagen.Netflow(datagen.NetflowConfig{Seed: 1, Edges: 30000, Hosts: 4000})
	edges := full[:8000]
	stats := collect(full[:len(full)/5])
	q := query.NewPath(query.Wildcard, "UDP", "ICMP", "GRE")
	const want = 87

	var ref [][]string
	for _, s := range []Strategy{StrategySingle, StrategySingleLazy, StrategyPath, StrategyPathLazy} {
		for _, size := range []int{1, 64, 1024} {
			label := fmt.Sprintf("%v batch=%d", s, size)
			eng, err := New(q, Config{Strategy: s, Window: 2000, Stats: stats, MaxMatchesPerSearch: 20000})
			if err != nil {
				t.Fatalf("%s: New: %v", label, err)
			}
			var got [][]string
			if size == 1 {
				for _, se := range edges {
					got = appendEdgeSigs(eng, got, eng.ProcessEdge(se))
				}
			} else {
				for chunk := range slices.Chunk(edges, size) {
					for _, ms := range eng.ProcessBatch(chunk) {
						got = appendEdgeSigs(eng, got, ms)
					}
				}
			}
			n := 0
			for _, sigs := range got {
				n += len(sigs)
			}
			if n != want {
				t.Errorf("%s: %d matches, want %d", label, n, want)
			}
			if ref == nil {
				ref = got
				continue
			}
			comparePerEdge(t, label, got, ref)
		}
	}
}
