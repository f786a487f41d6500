package main

import (
	"fmt"
	"math/rand"

	"streamgraph/internal/core"
	"streamgraph/internal/datagen"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// batchSize is the unit in which every workload offers its stream: the
// generator hands the system 512 edges at a time, and a paced pass
// schedules one batch every batchSize/rate seconds.
const batchSize = 512

// streamScale shrinks every stream of the issue's reference sizes
// (Netflow 6M, LSBench 1M, multi-query 800k edges) by the same factor,
// so that set-up, the oracle, a warm-up and the measured seconds of one
// workload fit the ~20 s a single run may take (the driver makes 114
// runs of the five gated workloads and allows 3420 s for all of them).
const streamScale = 8

// topology names the call path a stream is driven through.
type topology int

const (
	topoEngine  topology = iota // core.Engine.ProcessEdge, one query
	topoMulti                   // core.MultiEngine.ProcessBatch + ResolveMatch
	topoShard                   // shard.New, 2 in-process shards
	topoRemote                  // shard.New, 2 dshard.Server slots on loopback TCP
	topoDurable                 // shard.Open, 2 shards, data dir, checkpoints
)

func (t topology) String() string {
	return [...]string{"engine", "multi", "shard2", "remote2", "durable2"}[t]
}

type namedQuery struct {
	name string
	text string
}

// workload is one named set of inputs and the call path they take.
type workload struct {
	name string
	// why is the line BENCHMARK.json carries for the workload.
	why  string
	topo topology
	// dataset generates the stream and says how many epochs it has.
	dataset  func(seed int64, quick bool) (edges []stream.Edge, epochs int)
	queries  []namedQuery
	strategy core.Strategy
	// matchCap is core.Config.MaxMatchesPerSearch (0 = none).
	matchCap int
	// window returns tW for the generated stream.
	window func(edges []stream.Edge) int64
	// pacedRate is the fixed offered rate of the open-loop pass in
	// edges/s: about a quarter of the closed-loop throughput measured on
	// the 2-core reference host (see README.md), so that a host that
	// withholds half its CPU still leaves the system unsaturated.
	pacedRate int
	// hostBound marks a workload whose times are the host's more than
	// the program's: loopback TCP round trips between six goroutines on
	// two cores, fsync on a shared virtual disk. BENCHMARK.json does not
	// list it, so the driver neither runs nor gates it; it runs by name
	// and under -workload all, and compare judges it like the others.
	hostBound bool
}

// Streams are built from a fixed pool of epochs, and the seed decides
// the order the epochs come in. One draw of a generator is dominated by
// which of its few hub vertices got which role (a backbone host that
// prefers ESP, a popular org): across ten seeds, allocations per edge,
// which no clock touches, spread by 64% on nf_rare_lazy, 30% on
// ls_tree_dense and 22% on multi6_shard2, and drawing every epoch
// afresh from the seed left 10-20%, because the costly structures are
// rare and heavy-tailed. With a fixed pool every seed gives the system
// the same hundreds of structures in a different sequence, so two runs
// differ by what happens where epochs meet and by the host's noise,
// and a bound of a few percent means something. What the seed does not
// do is draw a new population: that takes a new poolSeed, which is a
// change to the benchmark and resets the baseline.
const poolSeed = 20150323

// pooled concatenates epochs 0..k-1 of gen in the order the seed
// picks, timestamps running on from one epoch to the next.
func pooled(seed int64, k int, gen func(sub int64) []stream.Edge) ([]stream.Edge, int) {
	var out []stream.Edge
	for _, e := range rand.New(rand.NewSource(seed)).Perm(k) {
		part := gen(poolSeed + int64(e))
		var base int64
		if len(out) > 0 {
			base = out[len(out)-1].TS
		}
		for i := range part {
			part[i].TS += base
		}
		out = append(out, part...)
	}
	return out, k
}

// netflow is epochs of datagen.Netflow{Hosts: 100_000}, fullEdges/8 in
// all (1/25 of that at test size), in whole epochs of epochEdges.
func netflow(fullEdges, epochEdges int) func(int64, bool) ([]stream.Edge, int) {
	return func(seed int64, quick bool) ([]stream.Edge, int) {
		n := fullEdges / streamScale
		if quick {
			n /= 25
		}
		return pooled(seed, max(n/epochEdges, 1), func(sub int64) []stream.Edge {
			return datagen.Netflow(datagen.NetflowConfig{Seed: sub, Edges: min(epochEdges, n), Hosts: 100_000})
		})
	}
}

// The rare-path rows take 22 epochs of 16 windows each: the query's
// matches come in bursts where an AH-ESP path meets a TCP hub, a window
// that straddles two epochs pairs structures the pool does not fix, and
// at 2 windows per epoch that alone spread lazy allocations per edge by
// 6% across seeds. The multi-query rows are steady at 24 epochs of 2
// windows (0.5%).
var (
	rareStream  = netflow(6_000_000, 32768)
	multiStream = netflow(800_000, 4096)
)

// lsbench is 8 epochs of datagen.LSBench, each with its own static half
// and activity half. 1500 users put ~13 matches per edge into a window
// of half an epoch.
func lsbench(seed int64, quick bool) ([]stream.Edge, int) {
	epochs, users := 8, 1500
	if quick {
		epochs = 1
	}
	return pooled(seed, epochs, func(sub int64) []stream.Edge {
		return datagen.LSBench(datagen.LSBenchConfig{Seed: sub, Edges: 1_000_000 / streamScale / 8, Users: users})
	})
}

func fixedWindow(w int64) func([]stream.Edge) int64 {
	return func([]stream.Edge) int64 { return w }
}

// Queries are pinned as text so that a refactor of datagen or of
// query.NewPath cannot silently change what is measured.

const rarePathQuery = `v v0 *
v v1 *
v v2 *
v v3 *
v v4 *
e v0 v1 AH
e v1 v2 ESP
e v2 v3 TCP
e v3 v4 TCP
`

// lsTreeQuery is the least selective of the three
// SampleByExpectedSelectivity picks from GenerateSchemaTreeQueries(
// rng(1+13), LSBenchSchema(), 4, 18) after the median-S filter, on the
// reference stream LSBench{Seed: 2, Edges: 1_000_000, Users: 25_000}:
// an org with the forum it hosts, a student and two employees.
const lsTreeQuery = `v v0 forum
v v1 org
v v2 user
v v3 user
v v4 user
e v0 v1 hostedBy
e v2 v1 studyAt
e v3 v1 worksAt
e v4 v1 worksAt
`

// sixHopQueries are the six reference 2-hop wildcard paths: the
// shardQueries rotation of internal/experiments over NetflowProtocols.
func sixHopQueries() []namedQuery {
	rot := []string{"TCP", "UDP", "ICMP", "IPv6", "GRE", "ESP", "AH"}
	out := make([]namedQuery, 6)
	for i := range out {
		t1, t2 := rot[i], rot[i+1]
		out[i] = namedQuery{
			name: fmt.Sprintf("q%02d-%s-%s", i, t1, t2),
			text: fmt.Sprintf("v v0 *\nv v1 *\nv v2 *\ne v0 v1 %s\ne v1 v2 %s\n", t1, t2),
		}
	}
	return out
}

var workloads = []workload{
	{
		name:     "nf_rare_lazy",
		why:      "Rare prefix, frequent suffix (AH-ESP-TCP-TCP, ~0.02 matches/edge): the regime Lazy Search exists for; graph update, iso search and the lazy bitmap do the work, sjtree idles.",
		topo:     topoEngine,
		dataset:  rareStream,
		queries:  []namedQuery{{"rare", rarePathQuery}},
		strategy: core.StrategyAuto, matchCap: 20000,
		window:    fixedWindow(2000),
		pacedRate: 300_000,
	},
	{
		name:     "nf_rare_eager",
		why:      "Same stream and query under StrategySingle: every TCP edge searched and stored, expiry-heavy; a lazy-path gain that taxes the eager path shows here.",
		topo:     topoEngine,
		dataset:  rareStream,
		queries:  []namedQuery{{"rare", rarePathQuery}},
		strategy: core.StrategySingle, matchCap: 20000,
		window:    fixedWindow(2000),
		pacedRate: 250_000,
	},
	{
		name:     "ls_tree_dense",
		why:      "LSBench, 45 edge types and vertex labels, wide window, ~13 matches/edge: multi-level sjtree joins, match-pool churn and materialisation dominate; graph and iso are a small share.",
		topo:     topoEngine,
		dataset:  lsbench,
		queries:  []namedQuery{{"lstree", lsTreeQuery}},
		strategy: core.StrategySingle,
		// Half an epoch: the static halves of two epochs never share a
		// window, so the matches do not depend on the epochs' order.
		window: func(edges []stream.Edge) int64 {
			return (edges[len(edges)-1].TS - edges[0].TS) / 16
		},
		// A fourteenth of the average throughput: the dense half of an
		// epoch runs three times slower than the average, and a batch that
		// outlasts its interval queues the ones behind it.
		pacedRate: 20_000,
	},
	{
		name:     "multi6_serial",
		why:      "Six 2-hop wildcard queries on one MultiEngine in 512-edge batches, every match resolved: the serial 1.0x baseline of the three topologies, ~2.2 matches/edge.",
		topo:     topoMulti,
		dataset:  multiStream,
		queries:  sixHopQueries(),
		strategy: core.StrategySingleLazy, matchCap: 20000,
		window:    fixedWindow(2000),
		pacedRate: 40_000,
	},
	{
		name:     "multi6_shard2",
		why:      "Same six queries through shard.New with 2 in-process shards: router admission, type gate, EdgeLog, per-batch statistics, queue hop and collection channel on top of the same engine work.",
		topo:     topoShard,
		dataset:  multiStream,
		queries:  sixHopQueries(),
		strategy: core.StrategySingleLazy, matchCap: 20000,
		window:    fixedWindow(2000),
		pacedRate: 40_000,
	},
	{
		name:     "multi6_remote2",
		why:      "Same through 2 dshard workers on loopback TCP: wire encode/decode, ack-per-frame round trips and snapshot cadence dominate; the in-process rows predict no change.",
		topo:     topoRemote,
		dataset:  multiStream,
		queries:  sixHopQueries(),
		strategy: core.StrategySingleLazy, matchCap: 20000,
		window:    fixedWindow(2000),
		pacedRate: 20_000,
		hostBound: true,
	},
	{
		name:     "multi6_durable2",
		why:      "Same through shard.Open with a data dir and a checkpoint every 4096 edges: edlog append and fsync plus persist checkpoint rounds on the ingest path; the one row with a real restart.",
		topo:     topoDurable,
		dataset:  multiStream,
		queries:  sixHopQueries(),
		strategy: core.StrategySingleLazy, matchCap: 20000,
		window:    fixedWindow(2000),
		pacedRate: 20_000,
		hostBound: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// parsedQuery is one of a workload's queries after query.Parse.
type parsedQuery struct {
	name string
	q    *query.Graph
}

func (w workload) parse() ([]parsedQuery, error) {
	out := make([]parsedQuery, len(w.queries))
	for i, nq := range w.queries {
		q, err := query.Parse(nq.text)
		if err != nil {
			return nil, fmt.Errorf("workload %s: query %s: %w", w.name, nq.name, err)
		}
		out[i] = parsedQuery{nq.name, q}
	}
	return out, nil
}
