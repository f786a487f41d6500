package shard

// The six-query reference workload whose 17607 matches the project's
// change history quotes, pinned on every runtime topology and under
// live-migration churn.

import (
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/datagen"
	"streamgraph/internal/dshard"
	"streamgraph/internal/stream"
)

// referenceMatches is what the reference workload finds on every
// topology.
const referenceMatches = 17607

// The reference workload runs the six hop queries under referenceConfig
// over referenceEdges, with window referenceWindow and 512-edge ingest
// batches.
const referenceWindow = 2000

var referenceConfig = core.Config{Strategy: core.StrategySingleLazy, MaxMatchesPerSearch: 20000}

// referenceEdges is the first 8000 edges of netflow seed 1 (30000 edges,
// 4000 hosts).
func referenceEdges() []stream.Edge {
	return datagen.Netflow(datagen.NetflowConfig{Seed: 1, Edges: 30000, Hosts: 4000})[:8000]
}

// countingConn tallies the bytes read and written through a net.Conn.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countingListener meters every accepted connection into n.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, n: l.n}, nil
}

// startCountingWorker is startRemoteWorker with the worker side of
// every connection metered at the TCP layer, both directions, into tcp.
func startCountingWorker(t *testing.T, tcp *atomic.Int64) (string, *dshard.Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := dshard.NewServer()
	go srv.Serve(countingListener{Listener: ln, n: tcp})
	t.Cleanup(srv.Close)
	return ln.Addr().String(), srv
}

// runReference registers the reference queries on r, ingests the
// stream in 512-edge batches, calling between(batch) after each, and
// closes r. It returns the sorted match signatures Drain delivered.
func runReference(t *testing.T, r *Router, between func(batch int)) []string {
	t.Helper()
	names, queries := hopQueries()
	var mu sync.Mutex
	var sigs []string
	counted := make(chan int64, 1)
	go func() {
		counted <- r.Drain(func(m Match) {
			mu.Lock()
			sigs = append(sigs, matchSig(m))
			mu.Unlock()
		})
	}()
	for _, name := range names {
		if err := r.Register(name, queries[name], referenceConfig); err != nil {
			r.Close()
			<-counted
			t.Fatalf("register %s: %v", name, err)
		}
	}
	batch := 0
	for chunk := range slices.Chunk(referenceEdges(), 512) {
		r.IngestBatch(chunk)
		if between != nil {
			between(batch)
		}
		batch++
	}
	r.Close()
	if n := <-counted; n != int64(len(sigs)) {
		t.Fatalf("Drain reported %d matches but delivered %d", n, len(sigs))
	}
	sort.Strings(sigs)
	return sigs
}

// TestReferenceWorkloadTopologies runs the reference workload on a
// serial MultiEngine and then, one subtest each, on two in-process
// shards (shard2), two loopback dshard workers (remote2), one local plus
// one remote slot (mixed), and two durable shards (durable2).
// Every topology must find the 17607 matches with the serial engine's
// per-query multisets. The remote rows' wire counters must record the
// traffic with compression never inflating it, the durable row must
// leave its edge log on disk and reopen from it, and every two-slot
// row must store fewer edges than full replication would.
func TestReferenceWorkloadTopologies(t *testing.T) {
	edges := referenceEdges()
	names, queries := hopQueries()

	m := core.NewMulti(core.MultiConfig{Window: referenceWindow})
	for _, name := range names {
		if err := m.Register(name, queries[name], referenceConfig); err != nil {
			t.Fatalf("serial: register %s: %v", name, err)
		}
	}
	var want []string
	for chunk := range slices.Chunk(edges, 512) {
		for _, nm := range m.ProcessBatch(chunk) {
			want = append(want, serialSig(m, nm))
		}
	}
	sort.Strings(want)
	if len(want) != referenceMatches {
		t.Fatalf("serial: %d matches, want %d", len(want), referenceMatches)
	}
	if n := m.EdgesStored(); n != int64(len(edges)) {
		t.Fatalf("serial: one shared graph stored %d edges, want %d", n, len(edges))
	}

	check := func(t *testing.T, r *Router, got []string) {
		t.Helper()
		if len(got) != referenceMatches {
			t.Errorf("%d matches, want %d", len(got), referenceMatches)
		} else if !equalStrings(got, want) {
			t.Errorf("match multiset differs from the serial engine's")
		}
		// Edge-type-partitioned replicas: the rotating two-type queries
		// overlap, so two slots store between 1x and 2x the stream.
		var replicated int64
		for _, s := range r.Stats() {
			replicated += s.ReplicaStored
		}
		if full := int64(r.NumShards() * len(edges)); replicated <= 0 || replicated >= full {
			t.Errorf("%d slots stored %d edges, want in (0, %d) — below full replication",
				r.NumShards(), replicated, full)
		}
	}

	t.Run("shard2", func(t *testing.T) {
		r := New(Config{Shards: 2, Window: referenceWindow})
		check(t, r, runReference(t, r, nil))
	})

	remote := func(t *testing.T, local, remotes int) {
		var tcp atomic.Int64
		addr, srv := startCountingWorker(t, &tcp)
		r := New(Config{Shards: local, Remotes: slices.Repeat([]string{addr}, remotes), Window: referenceWindow})
		check(t, r, runReference(t, r, nil))
		srv.Close()
		samples := r.Metrics().Snapshot()
		out, in := sumMetric(samples, "sg_dshard_bytes_out_total"), sumMetric(samples, "sg_dshard_bytes_in_total")
		rawOut, rawIn := sumMetric(samples, "sg_dshard_raw_bytes_out_total"), sumMetric(samples, "sg_dshard_raw_bytes_in_total")
		if out <= 0 || in <= 0 {
			t.Errorf("wire traffic not recorded: %d bytes out, %d in", out, in)
		}
		if out > rawOut || in > rawIn {
			t.Errorf("sent bytes exceed raw: out %d > %d or in %d > %d", out, rawOut, in, rawIn)
		}
		if tcp.Load() <= 0 {
			t.Errorf("no bytes crossed the worker's TCP connections")
		}
		t.Logf("%d B out (%d raw), %d B in (%d raw), %d B on TCP", out, rawOut, in, rawIn, tcp.Load())
	}
	t.Run("remote2", func(t *testing.T) { remote(t, 0, 2) })
	t.Run("mixed", func(t *testing.T) { remote(t, 1, 1) })

	t.Run("durable2", func(t *testing.T) {
		dir := t.TempDir()
		dcfg := Config{Shards: 2, Window: referenceWindow, DataDir: dir}
		r, _, err := Open(dcfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var ls LogStats
		got := runReference(t, r, func(int) { ls = r.LogStats() })
		check(t, r, got)
		if err := r.PersistErr(); err != nil {
			t.Fatalf("persist: %v", err)
		}
		if ls.Segments <= 0 || ls.DiskBytes <= 0 {
			t.Errorf("edge log holds %d segments, %d bytes after the stream", ls.Segments, ls.DiskBytes)
		}
		if ents, err := os.ReadDir(filepath.Join(dir, "edgelog")); err != nil || len(ents) == 0 {
			t.Errorf("no edge log segments left on disk (%d entries, %v)", len(ents), err)
		}
		r, _, err = Open(dcfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		drained := make(chan int64, 1)
		go func() { drained <- r.Drain(nil) }()
		r.Close()
		<-drained
	})
}

// TestMigrateReferenceWorkload runs the reference workload on two slots
// three ways: without migrations, with one query rotated to the next of
// two local slots every fourth batch, and with the same churn between a
// local slot and a loopback dshard worker. Every mode must find the
// 17607 matches of the baseline's multiset; the churn modes must
// complete every migration they drive, fail none, and time the source
// drains and count the backfilled edges in the registry.
func TestMigrateReferenceWorkload(t *testing.T) {
	names, _ := hopQueries()

	run := func(mode string, local int, remotes []string, churn bool) []string {
		r := New(Config{Shards: local, Remotes: remotes, Window: referenceWindow})
		migrations := 0
		got := runReference(t, r, func(batch int) {
			if !churn || batch%4 != 3 {
				return
			}
			name := names[migrations%len(names)]
			from, ok := r.Owner(name)
			if !ok {
				t.Fatalf("%s: %s has no owner", mode, name)
			}
			if err := r.Migrate(name, from, (from+1)%r.NumShards()); err != nil {
				t.Fatalf("%s: migrate %s: %v", mode, name, err)
			}
			migrations++
		})
		if len(got) != referenceMatches {
			t.Errorf("%s: %d matches, want %d", mode, len(got), referenceMatches)
		}

		samples := r.Metrics().Snapshot()
		completed := metricValue(t, samples, "sg_migrations_completed_total")
		failed := metricValue(t, samples, "sg_migrations_failed_total")
		backfill := metricValue(t, samples, "sg_migration_backfill_edges_total")
		var drains, p50, p99 int64
		for _, s := range samples {
			if s.Name == "sg_migration_drain_ns" && s.Hist != nil {
				drains, p50, p99 = int64(s.Hist.Count()), s.Hist.Quantile(0.5), s.Hist.Quantile(0.99)
			}
		}
		if completed != int64(migrations) || failed != 0 {
			t.Errorf("%s: drove %d migrations, registry reports %d completed and %d failed",
				mode, migrations, completed, failed)
		}
		if !churn {
			return got
		}
		if migrations == 0 {
			t.Errorf("%s: no migrations drove the churn", mode)
		}
		if drains < completed || p50 <= 0 || backfill <= 0 {
			t.Errorf("%s: %d drain samples (p50 %d ns) for %d migrations, %d backfill edges — counters not plumbed",
				mode, drains, p50, completed, backfill)
		}
		t.Logf("%s: %d migrations, %d backfill edges, drain p50 %v p99 %v", mode, completed, backfill,
			time.Duration(p50), time.Duration(p99))
		return got
	}

	base := run("baseline", 2, nil, false)
	if len(base) == 0 {
		t.Fatal("baseline found no matches; comparison is vacuous")
	}
	if got := run("churn-local", 2, nil, true); !equalStrings(got, base) {
		t.Errorf("churn-local: match multiset differs from the baseline's")
	}
	addr, _ := startRemoteWorker(t)
	if got := run("churn-remote", 1, []string{addr}, true); !equalStrings(got, base) {
		t.Errorf("churn-remote: match multiset differs from the baseline's")
	}
}
