package experiments

import "testing"

// TestShardThroughputAgrees smoke-runs the runtime comparison on a
// tiny stream: every mode must process the full stream and report the
// same match count (exactness proper is proven differentially in
// internal/shard; this guards the harness wiring).
func TestShardThroughputAgrees(t *testing.T) {
	ds := NetflowDataset(tinyScale, 5)
	rows := ShardThroughput(ShardConfig{
		Dataset: ds, NumQueries: 4, Shards: []int{1, 2}, MaxEdges: 2000, Batch: 128,
	})
	if len(rows) != 3 { // serial, shard=1, shard=2
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for i, r := range rows {
		if r.Edges != 2000 {
			t.Fatalf("row %d (%s) processed %d edges, want 2000", i, r.Mode, r.Edges)
		}
		if r.Matches != rows[0].Matches {
			t.Fatalf("row %d (%s shards=%d) found %d matches, serial found %d",
				i, r.Mode, r.Shards, r.Matches, rows[0].Matches)
		}
		if r.EdgesPerSec <= 0 {
			t.Fatalf("row %d has nonpositive throughput", i)
		}
		if r.ReplicaEdges <= 0 {
			t.Fatalf("row %d (%s) reports no replicated edges", i, r.Mode)
		}
		// Edge-type-partitioned replicas: a shard row's total storage
		// must stay under full replication (shards x edges); the rotating
		// 2-type queries overlap, so it lands between 1x and shards-x.
		if r.Mode == "shard" && r.Shards > 1 && r.ReplicaEdges >= int64(r.Shards*r.Edges) {
			t.Fatalf("row %d: %d shards replicated %d edges — no better than full replication (%d)",
				i, r.Shards, r.ReplicaEdges, r.Shards*r.Edges)
		}
	}
	if rows[0].Matches == 0 {
		t.Fatal("workload produced no matches; comparison is vacuous")
	}
	if rows[0].ReplicaEdges != int64(rows[0].Edges) {
		t.Fatalf("serial row replicated %d edges, want exactly %d", rows[0].ReplicaEdges, rows[0].Edges)
	}
}
