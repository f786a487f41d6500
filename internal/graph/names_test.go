package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestNameIndexAgainstMap drives random EnsureVertex / ExpireBefore
// scripts against a map[string]VertexID oracle: after every step each
// name the oracle holds resolves to its vertex, each name it dropped
// resolves to nothing, and the index holds exactly the live vertices.
// With the collide hook every name lands in one probe run that starts a
// slot before the table's end, so the scripts cover what real hashes
// rarely reach: runs that wrap, a backward shift across the wrap, a
// delete in the middle of a run, and a reclaimed name coming back under
// a new label while its old neighbours are still in the run. A
// deleteName that only cleared its slot (no shift) fails at the first
// lookup past the gap.
func TestNameIndexAgainstMap(t *testing.T) {
	for _, collide := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			runNameScript(t, seed, collide)
		}
	}
}

// indexedNames counts the occupied slots of the name index.
func (g *Graph) indexedNames() (n int) {
	for _, s := range g.names {
		if s.ref != 0 {
			n++
		}
	}
	return n
}

func runNameScript(t *testing.T, seed int64, collide bool) {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	g.collide = collide
	tp := TypeID(g.Types().Intern("t"))
	const domain = 96
	oracle := make(map[string]VertexID)
	labelOf := make(map[string]string)
	where := func(step int) string { return fmt.Sprintf("seed %d collide=%v step %d", seed, collide, step) }

	ts := int64(0)
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // an edge between two names, new or known
			ts++
			var ids [2]VertexID
			for k := range ids {
				name := fmt.Sprintf("n%d", rng.Intn(domain))
				label := fmt.Sprintf("l%d", rng.Intn(3))
				v := g.EnsureVertex(name, label)
				if want, known := oracle[name]; known {
					if v != want {
						t.Fatalf("%s: %s resolved to %d, oracle holds %d", where(step), name, v, want)
					}
				} else {
					oracle[name], labelOf[name] = v, label
				}
				ids[k] = v
			}
			g.AddEdge(ids[0], ids[1], tp, ts)
		case op < 7: // a vertex that never gets an edge
			name := fmt.Sprintf("lone%d", rng.Intn(domain))
			v := g.EnsureVertex(name, "l0")
			if _, known := oracle[name]; !known {
				oracle[name], labelOf[name] = v, "l0"
			}
		default: // a sweep: the oracle forgets what it leaves isolated
			g.ExpireBefore(ts - int64(rng.Intn(40)))
			for name, v := range oracle {
				if g.Degree(v) == 0 {
					delete(oracle, name)
					delete(labelOf, name)
				}
			}
		}

		if g.LiveVertices() != len(oracle) {
			t.Fatalf("%s: %d live vertices, oracle holds %d", where(step), g.LiveVertices(), len(oracle))
		}
		indexed := g.indexedNames()
		if indexed != len(oracle) || 2*indexed > len(g.names) {
			t.Fatalf("%s: index holds %d names in %d slots, oracle holds %d", where(step), indexed, len(g.names), len(oracle))
		}
		for name, v := range oracle {
			if got := g.VertexByName(name); got != v {
				t.Fatalf("%s: %s resolves to %d, oracle holds %d", where(step), name, got, v)
			}
			if got := g.Labels().Name(uint32(g.VertexLabel(v))); got != labelOf[name] {
				t.Fatalf("%s: %s carries label %s, its first edge since re-entry gave %s", where(step), name, got, labelOf[name])
			}
		}
		for k := 0; k < domain; k++ {
			for _, name := range []string{fmt.Sprintf("n%d", k), fmt.Sprintf("lone%d", k)} {
				if _, known := oracle[name]; !known && g.VertexByName(name) != NoVertex {
					t.Fatalf("%s: reclaimed name %s still resolves", where(step), name)
				}
			}
		}
	}
	if g.VerticesReclaimed() == 0 {
		t.Fatalf("seed %d: the script reclaimed nothing; the test is vacuous", seed)
	}
}

// BenchmarkIngestChurn is the graph layer's share of a Netflow-shaped
// stream, for A/B work without bench/: 100k hosts, a window of 2000
// edges swept every 256, so nearly every edge brings a name the index
// has forgotten and every sweep reclaims a few hundred.
func BenchmarkIngestChurn(b *testing.B) {
	const (
		hosts  = 100_000
		window = 2000
		every  = 256
	)
	names := make([]string, hosts)
	for i := range names {
		names[i] = fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&255, i&255)
	}
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int32, 1<<16)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(hosts)), int32(rng.Intn(hosts))}
	}
	g := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&(len(pairs)-1)]
		ts := int64(i)
		g.AddEdgeNamed(names[p[0]], "ip", names[p[1]], "ip", "TCP", ts)
		if i%every == 0 {
			g.ExpireBefore(ts - window + 1)
		}
	}
}
