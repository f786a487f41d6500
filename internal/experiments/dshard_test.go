package experiments

import "testing"

// TestDshardThroughputConsistency is the loopback differential the CI
// test job runs: every topology — serial, in-process shards, all
// slots remote over loopback TCP, and mixed local/remote — must report
// byte-identical match counts on the same workload. (What the wire
// encoding saves is pinned in internal/dshard, by
// TestWireV2DictionaryShrinksRepeats.)
func TestDshardThroughputConsistency(t *testing.T) {
	ds := NetflowDataset(ScaleSmall, 5)
	rows, err := DshardThroughput(DshardConfig{Dataset: ds, MaxEdges: 3000, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantModes := []string{"serial", "inproc", "remote", "mixed"}
	if len(rows) != len(wantModes) {
		t.Fatalf("got %d rows, want %d", len(rows), len(wantModes))
	}
	byMode := map[string]DshardRow{}
	for i, r := range rows {
		if r.Mode != wantModes[i] {
			t.Fatalf("row %d mode %q, want %q", i, r.Mode, wantModes[i])
		}
		byMode[r.Mode] = r
		if r.Matches != rows[0].Matches {
			t.Errorf("%s: %d matches, serial found %d — the topologies diverge",
				r.Mode, r.Matches, rows[0].Matches)
		}
		if r.EdgesPerSec <= 0 {
			t.Errorf("%s: non-positive throughput", r.Mode)
		}
	}
	if rows[0].Matches == 0 {
		t.Fatal("workload produced no matches; consistency check is vacuous")
	}
	for _, mode := range wantModes[2:] {
		r := byMode[mode]
		if r.WireMB <= 0 || r.WireMBRaw <= 0 || r.WireMBSent <= 0 {
			t.Errorf("%s: wire traffic not recorded: %+v", mode, r)
		}
		if r.WireMBSent > r.WireMBRaw {
			t.Errorf("%s: sent %f MiB exceeds raw %f MiB", mode, r.WireMBSent, r.WireMBRaw)
		}
	}
}
