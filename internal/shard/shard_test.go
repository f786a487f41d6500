package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/datagen"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

func testQueries() map[string]*query.Graph {
	return map[string]*query.Graph{
		"gre-tcp":  query.NewPath(query.Wildcard, "GRE", "TCP"),
		"udp-icmp": query.NewPath("ip", "UDP", "ICMP"),
		"tcp-fan": {
			Vertices: []query.Vertex{
				{Name: "a", Label: "ip"}, {Name: "b", Label: "ip"}, {Name: "c", Label: "ip"},
			},
			Edges: []query.Edge{
				{Src: 0, Dst: 1, Type: "TCP"},
				{Src: 0, Dst: 2, Type: "UDP"},
			},
		},
	}
}

func testStrategies() map[string]core.Strategy {
	return map[string]core.Strategy{
		"gre-tcp":  core.StrategySingleLazy,
		"udp-icmp": core.StrategyPath,
		"tcp-fan":  core.StrategySingle,
	}
}

func testStream(n int) []stream.Edge {
	return datagen.Netflow(datagen.NetflowConfig{Seed: 21, Edges: n, Hosts: 180})
}

func sortedNames(qs map[string]*query.Graph) []string {
	names := make([]string, 0, len(qs))
	for name := range qs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// matchSig canonicalizes a portable match: the query plus the
// (queryEdge, src, dst, ts) of every bound data edge.
func matchSig(m Match) string {
	parts := make([]string, 0, len(m.Edges))
	for _, e := range m.Edges {
		parts = append(parts, fmt.Sprintf("%d:%s>%s@%d", e.QueryEdge, e.Src, e.Dst, e.TS))
	}
	return m.Query + "|" + strings.Join(parts, ";")
}

// serialSig canonicalizes a serial MultiEngine match identically, so
// the two runtimes are comparable string-for-string.
func serialSig(m *core.MultiEngine, nm core.NamedMatch) string {
	g := m.Graph()
	parts := make([]string, 0, len(nm.Match.EdgeOf))
	for qe, eid := range nm.Match.EdgeOf {
		de, ok := g.Edge(eid)
		if !ok {
			continue
		}
		parts = append(parts, fmt.Sprintf("%d:%s>%s@%d", qe, g.VertexName(de.Src), g.VertexName(de.Dst), de.TS))
	}
	return nm.Query + "|" + strings.Join(parts, ";")
}

// runSerial streams the workload through a serial MultiEngine and
// returns the ordered signature list (edge-major, registration order).
func runSerial(t *testing.T, edges []stream.Edge, window int64) []string {
	t.Helper()
	m := core.NewMulti(core.MultiConfig{Window: window})
	queries, strategies := testQueries(), testStrategies()
	for _, name := range sortedNames(queries) {
		if err := m.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	var sigs []string
	for _, se := range edges {
		for _, nm := range m.ProcessEdge(se) {
			sigs = append(sigs, serialSig(m, nm))
		}
	}
	return sigs
}

// runSharded streams the workload through a Router and returns the
// collected signature list in delivery order.
func runSharded(t *testing.T, edges []stream.Edge, cfg Config, batch int) []string {
	t.Helper()
	r := New(cfg)
	queries, strategies := testQueries(), testStrategies()
	for _, name := range sortedNames(queries) {
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	var mu sync.Mutex
	var sigs []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drain(func(m Match) {
			mu.Lock()
			sigs = append(sigs, matchSig(m))
			mu.Unlock()
		})
	}()
	if batch <= 1 {
		for _, se := range edges {
			r.Ingest(se)
		}
	} else {
		for lo := 0; lo < len(edges); lo += batch {
			hi := lo + batch
			if hi > len(edges) {
				hi = len(edges)
			}
			r.IngestBatch(edges[lo:hi])
		}
	}
	r.Close()
	<-done
	return sigs
}

// TestShardedMatchesSerial is the differential: per-query match
// multisets from the sharded runtime must equal the serial MultiEngine
// on the same stream, for several shard counts and batch sizes.
func TestShardedMatchesSerial(t *testing.T) {
	edges := testStream(1500)
	const window = 400
	want := append([]string(nil), runSerial(t, edges, window)...)
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}
	for _, shards := range []int{1, 2, 3, 5} {
		for _, batch := range []int{1, 64, 257} {
			got := runSharded(t, edges, Config{Shards: shards, Window: window}, batch)
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("shards=%d batch=%d: %d matches, want %d", shards, batch, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d batch=%d: match multiset differs at %d:\n got %s\nwant %s",
						shards, batch, i, got[i], want[i])
				}
			}
		}
	}
}

// runGroupedReference drives one MultiEngine through
// ProcessBatchGrouped with the given chunking — the exact schedule a
// shard worker runs — and returns the ordered signature list
// (edge-major, registration order).
func runGroupedReference(t *testing.T, edges []stream.Edge, window int64, batch int) []string {
	t.Helper()
	m := core.NewMulti(core.MultiConfig{Window: window})
	queries, strategies := testQueries(), testStrategies()
	for _, name := range sortedNames(queries) {
		if err := m.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	var sigs []string
	for lo := 0; lo < len(edges); lo += batch {
		hi := lo + batch
		if hi > len(edges) {
			hi = len(edges)
		}
		for _, named := range m.ProcessBatchGrouped(edges[lo:hi]) {
			for _, nm := range named {
				sigs = append(sigs, serialSig(m, nm))
			}
		}
	}
	return sigs
}

// TestOrderedModeDeterministic requires the in-seq merge to reproduce
// the single-engine batch schedule's output ORDER exactly — the same
// (arrival seq, registration) sequence regardless of shard count — and
// to equal the serial MultiEngine as a multiset (the per-edge order
// within one query is eviction-cadence dependent, so byte order is
// pinned against the batch reference, the schedule shards actually
// run).
func TestOrderedModeDeterministic(t *testing.T) {
	edges := testStream(1200)
	const window = 400
	serial := append([]string(nil), runSerial(t, edges, window)...)
	sort.Strings(serial)
	if len(serial) == 0 {
		t.Fatal("no matches; order check is vacuous")
	}
	for _, batch := range []int{1, 100} {
		want := runGroupedReference(t, edges, window, batch)
		if len(want) == 0 {
			t.Fatal("reference produced no matches")
		}
		asMultiset := append([]string(nil), want...)
		sort.Strings(asMultiset)
		if !equalStrings(asMultiset, serial) {
			t.Fatalf("batch=%d: grouped reference multiset differs from serial", batch)
		}
		for _, shards := range []int{1, 2, 4} {
			got := runSharded(t, edges, Config{Shards: shards, Window: window, Ordered: true}, batch)
			if len(got) != len(want) {
				t.Fatalf("shards=%d batch=%d: %d matches, want %d", shards, batch, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d batch=%d: delivery order diverges at %d:\n got %s\nwant %s",
						shards, batch, i, got[i], want[i])
				}
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedMatchesSerialRandomized drives randomized streams,
// shard counts and batch splits against the serial reference.
func TestShardedMatchesSerialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 5; trial++ {
		nEdges := 300 + rng.Intn(500)
		var edges []stream.Edge
		types := []string{"GRE", "TCP", "UDP", "ICMP"}
		for i := 0; i < nEdges; i++ {
			edges = append(edges, stream.Edge{
				Src: fmt.Sprintf("n%d", rng.Intn(60)), SrcLabel: "ip",
				Dst: fmt.Sprintf("n%d", rng.Intn(60)), DstLabel: "ip",
				Type: types[rng.Intn(len(types))], TS: int64(i + 1),
			})
		}
		window := int64(50 + rng.Intn(200))
		want := runSerial(t, edges, window)
		sort.Strings(want)
		shards := 1 + rng.Intn(4)
		// Random batch splits exercise uneven bundle boundaries.
		r := New(Config{Shards: shards, Window: window})
		queries, strategies := testQueries(), testStrategies()
		for _, name := range sortedNames(queries) {
			if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
				t.Fatalf("trial %d: register %s: %v", trial, name, err)
			}
		}
		var mu sync.Mutex
		var got []string
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Drain(func(m Match) {
				mu.Lock()
				got = append(got, matchSig(m))
				mu.Unlock()
			})
		}()
		for lo := 0; lo < len(edges); {
			hi := lo + 1 + rng.Intn(80)
			if hi > len(edges) {
				hi = len(edges)
			}
			r.IngestBatch(edges[lo:hi])
			lo = hi
		}
		r.Close()
		<-done
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("trial %d (shards=%d window=%d): %d matches, want %d", trial, shards, window, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: multiset differs at %d:\n got %s\nwant %s", trial, i, got[i], want[i])
			}
		}
	}
}

// TestCloseDrainsNoMatchLost floods the shards with a queue-saturating
// burst and calls Close immediately: every match the serial reference
// produces must still come out of the collection channel before it
// closes. Run under -race this also exercises the full pipeline's
// synchronization.
func TestCloseDrainsNoMatchLost(t *testing.T) {
	edges := testStream(2000)
	const window = 400
	want := len(runSerial(t, edges, window))
	if want == 0 {
		t.Fatal("no matches; drain check is vacuous")
	}
	// Tiny queues force backpressure mid-burst; the consumer counts
	// concurrently with ingestion AND with Close.
	r := New(Config{Shards: 4, Window: window, QueueLen: 2, OutLen: 4})
	queries, strategies := testQueries(), testStrategies()
	for _, name := range sortedNames(queries) {
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	counted := make(chan int64, 1)
	go func() { counted <- r.Drain(nil) }()
	for lo := 0; lo < len(edges); lo += 37 {
		hi := lo + 37
		if hi > len(edges) {
			hi = len(edges)
		}
		r.IngestBatch(edges[lo:hi])
	}
	r.Close()
	if got := <-counted; got != int64(want) {
		t.Fatalf("drained %d matches after Close, serial reference has %d — matches lost", got, want)
	}
	// Close is idempotent, and post-close ingests are refused silently.
	r.Close()
	seqBefore := r.EdgesRouted()
	r.Ingest(edges[0])
	if r.EdgesRouted() != seqBefore {
		t.Fatal("ingest after Close advanced the sequence")
	}
}

// TestRegisterUnregisterMidStream registers a second query mid-stream
// and unregisters another; the late query must see matches whose last
// edge arrives after registration, and the removed query must emit
// nothing afterwards.
func TestRegisterUnregisterMidStream(t *testing.T) {
	edges := testStream(1200)
	const window = 400
	r := New(Config{Shards: 3, Window: window})
	if err := r.Register("early", query.NewPath(query.Wildcard, "GRE", "TCP"), core.Config{Strategy: core.StrategySingleLazy}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("early", query.NewPath(query.Wildcard, "GRE"), core.Config{Strategy: core.StrategySingle}); err == nil {
		t.Fatal("duplicate register succeeded")
	}
	var mu sync.Mutex
	perQuery := map[string]int{}
	lastSeq := map[string]uint64{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drain(func(m Match) {
			mu.Lock()
			perQuery[m.Query]++
			lastSeq[m.Query] = m.Seq
			mu.Unlock()
		})
	}()
	half := len(edges) / 2
	for _, se := range edges[:half] {
		r.Ingest(se)
	}
	if err := r.Register("late", query.NewPath(query.Wildcard, "UDP", "ICMP"), core.Config{Strategy: core.StrategyPath}); err != nil {
		t.Fatal(err)
	}
	unregisterAt := r.EdgesRouted()
	r.Unregister("early")
	for _, se := range edges[half:] {
		r.Ingest(se)
	}
	if got := r.Registered(); len(got) != 1 || got[0] != "late" {
		t.Fatalf("Registered() = %v, want [late]", got)
	}
	r.Close()
	<-done
	if perQuery["late"] == 0 {
		t.Fatal("late-registered query produced no matches")
	}
	if perQuery["early"] == 0 {
		t.Fatal("early query produced no matches before unregister; test is vacuous")
	}
	if lastSeq["early"] >= unregisterAt {
		t.Fatalf("early query emitted a match at seq %d, at/after its unregister at %d", lastSeq["early"], unregisterAt)
	}
}

// TestStatsCounters checks per-shard accounting under full
// replication: every shard routes every edge, queue capacity is
// reported, query ownership sums to the registered count, and emitted
// matches sum to the collected total. (Gated-routing accounting is
// covered by the replica tests.)
func TestStatsCounters(t *testing.T) {
	edges := testStream(600)
	r := New(Config{Shards: 3, Window: 400, QueueLen: 8, FullReplicas: true})
	queries, strategies := testQueries(), testStrategies()
	for _, name := range sortedNames(queries) {
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatal(err)
		}
	}
	counted := make(chan int64, 1)
	go func() { counted <- r.Drain(nil) }()
	for lo := 0; lo < len(edges); lo += 50 {
		r.IngestBatch(edges[lo : lo+50])
	}
	r.Close()
	total := <-counted

	st := r.Stats()
	if len(st) != 3 {
		t.Fatalf("got %d shard stats, want 3", len(st))
	}
	var queries3, emitted int64
	for i, s := range st {
		if s.Shard != i {
			t.Fatalf("stats[%d].Shard = %d", i, s.Shard)
		}
		if s.EdgesRouted != int64(len(edges)) {
			t.Fatalf("shard %d routed %d edges, want %d (broadcast)", i, s.EdgesRouted, len(edges))
		}
		if s.QueueCap != 8 {
			t.Fatalf("shard %d queue cap %d, want 8", i, s.QueueCap)
		}
		queries3 += int64(s.Queries)
		emitted += s.MatchesEmitted
	}
	if queries3 != 3 {
		t.Fatalf("shard query ownership sums to %d, want 3", queries3)
	}
	if emitted != total {
		t.Fatalf("shards report %d emitted matches, collector saw %d", emitted, total)
	}
	if r.EdgesRouted() != uint64(len(edges)) {
		t.Fatalf("EdgesRouted() = %d, want %d", r.EdgesRouted(), len(edges))
	}
}
