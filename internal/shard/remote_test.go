package shard

// Distributed-runtime differentials: remote and mixed topologies over
// loopback TCP must be byte-identical (as match multisets, and in
// ordered mode as exact sequences) to the serial MultiEngine and the
// in-process runtime — including across mid-stream disconnects, where
// the reconnect replay must lose and duplicate nothing.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/dshard"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// startRemoteWorker serves the dshard protocol on loopback and returns
// the address plus the server (for Kick-based failure injection).
func startRemoteWorker(t *testing.T) (string, *dshard.Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := dshard.NewServer()
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return ln.Addr().String(), srv
}

// TestRemoteMatchesSerial is the cross-topology differential: per-query
// match multisets from all-remote and mixed local/remote topologies
// must equal the serial MultiEngine on the same stream.
func TestRemoteMatchesSerial(t *testing.T) {
	edges := testStream(1500)
	const window = 400
	want := append([]string(nil), runSerial(t, edges, window)...)
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}
	addr1, _ := startRemoteWorker(t)
	addr2, _ := startRemoteWorker(t)
	topologies := []struct {
		name string
		cfg  Config
	}{
		{"all-remote-1", Config{Shards: 0, Remotes: []string{addr1}}},
		{"all-remote-2", Config{Shards: 0, Remotes: []string{addr1, addr2}}},
		{"mixed-1-1", Config{Shards: 1, Remotes: []string{addr1}}},
		{"mixed-2-2", Config{Shards: 2, Remotes: []string{addr1, addr2}}},
	}
	for _, tp := range topologies {
		for _, batch := range []int{1, 64, 257} {
			cfg := tp.cfg
			cfg.Window = window
			got := runSharded(t, edges, cfg, batch)
			sort.Strings(got)
			if !equalStrings(got, want) {
				t.Fatalf("%s batch=%d: %d matches, want %d (multiset differs)",
					tp.name, batch, len(got), len(want))
			}
		}
	}
}

// TestRemoteOrderedDeterministic requires ordered mode to reproduce the
// batch reference's exact output sequence over remote and mixed
// topologies, just as it does in-process.
func TestRemoteOrderedDeterministic(t *testing.T) {
	edges := testStream(1200)
	const window = 400
	addr1, _ := startRemoteWorker(t)
	addr2, _ := startRemoteWorker(t)
	for _, batch := range []int{1, 100} {
		want := runGroupedReference(t, edges, window, batch)
		if len(want) == 0 {
			t.Fatal("reference produced no matches")
		}
		for _, tp := range []struct {
			name string
			cfg  Config
		}{
			{"all-remote", Config{Shards: 0, Remotes: []string{addr1, addr2}}},
			{"mixed", Config{Shards: 2, Remotes: []string{addr1}}},
		} {
			cfg := tp.cfg
			cfg.Window = window
			cfg.Ordered = true
			got := runSharded(t, edges, cfg, batch)
			if len(got) != len(want) {
				t.Fatalf("%s batch=%d: %d matches, want %d", tp.name, batch, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s batch=%d: delivery order diverges at %d:\n got %s\nwant %s",
						tp.name, batch, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRemoteDisconnectReconnect is the failure-path differential: the
// remote worker's connections are severed repeatedly mid-stream, the
// proxy reconnects and replays, and the delivered match multiset must
// still equal the serial engine exactly — no duplicates, no losses.
func TestRemoteDisconnectReconnect(t *testing.T) {
	edges := testStream(1500)
	const window = 400
	want := append([]string(nil), runSerial(t, edges, window)...)
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}
	addr, srv := startRemoteWorker(t)
	for _, batch := range []int{33, 128} {
		r := New(Config{Shards: 1, Remotes: []string{addr}, Window: window})
		queries, strategies := testQueries(), testStrategies()
		for _, name := range sortedNames(queries) {
			if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
				t.Fatalf("register %s: %v", name, err)
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
		kicks := 0
		for lo := 0; lo < len(edges); lo += batch {
			hi := lo + batch
			if hi > len(edges) {
				hi = len(edges)
			}
			r.IngestBatch(edges[lo:hi])
			// Sever every connection at several points mid-stream: the
			// proxy must reconnect and rebuild the remote engine by
			// replaying its entitlement from the shared edge log.
			if lo > 0 && lo/batch%4 == 0 {
				srv.Kick()
				kicks++
			}
		}
		if kicks == 0 {
			t.Fatal("stream too short to exercise any disconnect")
		}
		r.Close()
		<-done
		sort.Strings(got)
		if !equalStrings(got, want) {
			t.Fatalf("batch=%d after %d kicks: %d matches, want %d (multiset differs)",
				batch, kicks, len(got), len(want))
		}
	}
}

// TestRemoteRegisterUnregisterMidStream exercises runtime registration
// changes on a mixed topology, interleaved with disconnects: a query
// registered mid-stream backfills its window over the wire, an
// unregistered one narrows the remote replica, and the survivors'
// match sets stay exact.
func TestRemoteRegisterUnregisterMidStream(t *testing.T) {
	edges := testStream(1400)
	const window = 300
	const batch = 50
	// Serial oracle with the same schedule: q extra registered after
	// the first third, unregistered after the second third.
	third := len(edges) / 3

	queries, strategies := testQueries(), testStrategies()
	names := sortedNames(queries)
	extra := queries["gre-tcp"].Clone()

	serial := func() []string {
		m := core.NewMulti(core.MultiConfig{Window: window})
		for _, name := range names {
			if err := m.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
				t.Fatalf("register %s: %v", name, err)
			}
		}
		var sigs []string
		record := func(nms []core.NamedMatch) {
			for _, nm := range nms {
				if nm.Query == "extra" {
					continue // mid-stream lifecycle; only survivors compared
				}
				sigs = append(sigs, serialSig(m, nm))
			}
		}
		for i, se := range edges {
			if i == third {
				if err := m.Register("extra", extra, core.Config{Strategy: core.StrategySingleLazy}); err != nil {
					t.Fatalf("register extra: %v", err)
				}
			}
			if i == 2*third {
				m.Unregister("extra")
			}
			record(m.ProcessEdge(se))
		}
		return sigs
	}()
	sort.Strings(serial)
	if len(serial) == 0 {
		t.Fatal("no matches; differential is vacuous")
	}

	addr, srv := startRemoteWorker(t)
	r := New(Config{Shards: 1, Remotes: []string{addr}, Window: window})
	for _, name := range names {
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	var mu sync.Mutex
	var got []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drain(func(m Match) {
			if m.Query == "extra" {
				return
			}
			mu.Lock()
			got = append(got, matchSig(m))
			mu.Unlock()
		})
	}()
	for lo := 0; lo < len(edges); lo += batch {
		hi := lo + batch
		if hi > len(edges) {
			hi = len(edges)
		}
		if lo <= third && third < hi {
			r.IngestBatch(edges[lo:third])
			if err := r.Register("extra", extra, core.Config{Strategy: core.StrategySingleLazy}); err != nil {
				t.Fatalf("register extra: %v", err)
			}
			srv.Kick() // the freshly backfilled registration must survive a reconnect
			r.IngestBatch(edges[third:hi])
			continue
		}
		if lo <= 2*third && 2*third < hi {
			r.IngestBatch(edges[lo : 2*third])
			r.Unregister("extra")
			r.IngestBatch(edges[2*third : hi])
			srv.Kick()
			continue
		}
		r.IngestBatch(edges[lo:hi])
	}
	r.Close()
	<-done
	sort.Strings(got)
	if !equalStrings(got, serial) {
		t.Fatalf("survivor multiset differs: %d matches, want %d", len(got), len(serial))
	}
}

// TestRemoteUnregisterReconnectDifferential pins that no query comes
// back after a reconnect. A checkpoint snapshot that covers a query's
// registration retires the registration's replay event; a later
// removal of the query must then survive a reconnect that restores that
// snapshot. Two ways to remove it: Unregister, and Migrate to a local
// slot. Either way the query emits nothing on the remote slot after its
// removal, every other match equals the serial engine's, and after an
// Unregister the name registers again.
func TestRemoteUnregisterReconnectDifferential(t *testing.T) {
	const (
		window   = 300
		batch    = 50
		regAt    = 500  // "extra" arrives here
		removeAt = 1500 // and leaves its remote slot here
	)
	edges := testStream(3000)
	queries, strategies := testQueries(), testStrategies()
	names := sortedNames(queries)
	extra := queries["gre-tcp"].Clone()
	extraCfg := core.Config{Strategy: core.StrategySingleLazy}

	// serial is the oracle: "extra" registered at regAt and, when it is
	// unregistered rather than migrated, removed at removeAt.
	serial := func(unregister bool) []string {
		m := core.NewMulti(core.MultiConfig{Window: window})
		for _, name := range names {
			if err := m.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
				t.Fatalf("register %s: %v", name, err)
			}
		}
		var sigs []string
		for i, se := range edges {
			if i == regAt {
				if err := m.Register("extra", extra, extraCfg); err != nil {
					t.Fatalf("register extra: %v", err)
				}
			}
			if i == removeAt && unregister {
				m.Unregister("extra")
			}
			for _, nm := range m.ProcessEdge(se) {
				sigs = append(sigs, serialSig(m, nm))
			}
		}
		sort.Strings(sigs)
		return sigs
	}

	for _, tc := range []struct {
		name       string
		cfg        Config
		remote     int // the remote slot's id
		unregister bool
	}{
		{"unregister", Config{Remotes: []string{""}}, 0, true},
		{"migrate", Config{Shards: 1, Remotes: []string{""}}, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, srv := startRemoteWorker(t)
			cfg := tc.cfg
			cfg.Remotes = []string{addr}
			cfg.Window, cfg.CheckpointEvery = window, 100
			r := New(cfg)
			for _, name := range names {
				if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
					t.Fatalf("register %s: %v", name, err)
				}
			}
			var mu sync.Mutex
			var got []string
			var late []Match // "extra" matches the remote slot emitted after the removal
			done := make(chan struct{})
			go func() {
				defer close(done)
				r.Drain(func(m Match) {
					mu.Lock()
					defer mu.Unlock()
					got = append(got, matchSig(m))
					if m.Query == "extra" && m.Shard == tc.remote && m.Seq >= removeAt {
						late = append(late, m.Clone())
					}
				})
			}()
			feed := func(lo, hi int) {
				for ; lo < hi; lo += batch {
					r.IngestBatch(edges[lo:min(lo+batch, hi)])
				}
			}

			feed(0, regAt)
			if err := r.Register("extra", extra, extraCfg); err != nil {
				t.Fatalf("register extra: %v", err)
			}
			if from := ownerSlot(r, "extra"); from != tc.remote {
				if err := r.Migrate("extra", from, tc.remote); err != nil {
					t.Fatalf("place extra on the remote slot: %v", err)
				}
			}
			feed(regAt, removeAt)
			rs := r.workers[tc.remote]
			deadline := time.Now().Add(10 * time.Second)
			for cov := rs.coveredSeq(); cov == math.MaxUint64 || cov <= regAt; cov = rs.coveredSeq() {
				if time.Now().After(deadline) {
					t.Fatalf("no snapshot covers the registration at seq %d (covered: %d)", regAt, cov)
				}
				time.Sleep(time.Millisecond)
			}

			if tc.unregister {
				r.Unregister("extra")
			} else if err := r.Migrate("extra", tc.remote, 0); err != nil {
				t.Fatalf("migrate extra off the remote slot: %v", err)
			}
			srv.Kick() // the reconnect restores a snapshot that holds "extra"
			feed(removeAt, len(edges))
			if tc.unregister {
				if err := r.Register("extra", extra, extraCfg); err != nil {
					t.Errorf("register extra again after the reconnect: %v", err)
				}
			}
			r.Close()
			<-done

			if len(late) > 0 {
				t.Fatalf("the remote slot emitted %d matches of extra after its removal at seq %d (first at seq %d)",
					len(late), removeAt, late[0].Seq)
			}
			want := serial(tc.unregister)
			sort.Strings(got)
			if !equalStrings(got, want) {
				t.Fatalf("%d matches, the serial engine %d (multiset differs)", len(got), len(want))
			}
		})
	}
}

// TestRemoteDisconnectReconnectRandomized drives randomized streams,
// batch splits, kick points and registration churn against the serial
// oracle.
func TestRemoteDisconnectReconnectRandomized(t *testing.T) {
	addr, srv := startRemoteWorker(t)
	rng := rand.New(rand.NewSource(777))
	types := []string{"GRE", "TCP", "UDP", "ICMP"}
	for trial := 0; trial < 4; trial++ {
		nEdges := 400 + rng.Intn(400)
		var edges []stream.Edge
		for i := 0; i < nEdges; i++ {
			edges = append(edges, stream.Edge{
				Src: fmt.Sprintf("n%d", rng.Intn(50)), SrcLabel: "ip",
				Dst: fmt.Sprintf("n%d", rng.Intn(50)), DstLabel: "ip",
				Type: types[rng.Intn(len(types))], TS: int64(i + 1),
			})
		}
		window := int64(100 + rng.Intn(300))
		want := append([]string(nil), runSerial(t, edges, window)...)
		sort.Strings(want)

		cfg := Config{Window: window}
		if rng.Intn(2) == 0 {
			cfg.Shards, cfg.Remotes = 1+rng.Intn(2), []string{addr}
		} else {
			cfg.Shards, cfg.Remotes = 0, []string{addr, addr} // two slots, one process
		}
		r := New(cfg)
		queries, strategies := testQueries(), testStrategies()
		for _, name := range sortedNames(queries) {
			if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
				t.Fatalf("register %s: %v", name, err)
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
			hi := lo + 1 + rng.Intn(120)
			if hi > len(edges) {
				hi = len(edges)
			}
			r.IngestBatch(edges[lo:hi])
			if rng.Intn(5) == 0 {
				srv.Kick()
			}
			lo = hi
		}
		r.Close()
		<-done
		sort.Strings(got)
		if !equalStrings(got, want) {
			t.Fatalf("trial %d (%+v): %d matches, want %d (multiset differs)",
				trial, cfg, len(got), len(want))
		}
	}
}

// TestRemoteChunkedFrames forces the wire-chunking path (tiny chunk
// bound, so every batch and every registration backfill splits into
// many frames) through the full differential, disconnects included:
// chunk boundaries must never affect match sets — nor may a reconnect
// resetting the connection's dictionaries mid-differential.
func TestRemoteChunkedFrames(t *testing.T) {
	t.Run("v2-dict", testRemoteChunkedFrames)
}

func testRemoteChunkedFrames(t *testing.T) {
	old := remoteChunkBytes
	remoteChunkBytes = 512 // a few edges per frame
	defer func() { remoteChunkBytes = old }()

	edges := testStream(1200)
	const window = 400
	const batch = 97
	want := append([]string(nil), runSerial(t, edges, window)...)
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}
	addr, srv := startRemoteWorker(t)
	r := New(Config{Shards: 1, Remotes: []string{addr}, Window: window})
	queries, strategies := testQueries(), testStrategies()
	names := sortedNames(queries)
	// Register all but one up front; the last one mid-stream, so its
	// (chunked) backfill payload is exercised too.
	last := names[len(names)-1]
	for _, name := range names[:len(names)-1] {
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	var mu sync.Mutex
	var got []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drain(func(m Match) {
			if m.Query == last {
				return // registered later than the serial oracle's schedule
			}
			mu.Lock()
			got = append(got, matchSig(m))
			mu.Unlock()
		})
	}()
	for lo := 0; lo < len(edges); lo += batch {
		hi := lo + batch
		if hi > len(edges) {
			hi = len(edges)
		}
		r.IngestBatch(edges[lo:hi])
		if lo/batch == 4 {
			if err := r.Register(last, queries[last].Clone(), core.Config{Strategy: strategies[last]}); err != nil {
				t.Fatalf("register %s: %v", last, err)
			}
			r.Unregister(last)
		}
		if lo/batch%3 == 2 {
			srv.Kick()
		}
	}
	r.Close()
	<-done
	// The serial oracle registered every query from the start, so drop
	// `last` there too.
	want = want[:0]
	for _, s := range runSerial(t, edges, window) {
		if !strings.HasPrefix(s, last+"|") {
			want = append(want, s)
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if !equalStrings(got, want) {
		t.Fatalf("chunked frames: %d matches, want %d (multiset differs)", len(got), len(want))
	}
}

// TestRemoteWireSafeQueryValidation pins the register-time guard: a
// programmatically built query whose names would tokenize differently
// after the wire's print/parse round trip must be rejected in a remote
// topology instead of silently diverging from a local slot.
func TestRemoteWireSafeQueryValidation(t *testing.T) {
	addr, _ := startRemoteWorker(t)
	r := New(Config{Shards: 0, Remotes: []string{addr}})
	done := make(chan int64, 1)
	go func() { done <- r.Drain(nil) }()
	bad := &query.Graph{
		Vertices: []query.Vertex{{Name: "host a", Label: "ip"}, {Name: "b", Label: "ip"}},
		Edges:    []query.Edge{{Src: 0, Dst: 1, Type: "TCP"}},
	}
	if err := r.Register("bad", bad, core.Config{Strategy: core.StrategyVF2}); err == nil {
		t.Fatal("whitespace vertex name registered on a remote topology")
	}
	good := query.NewPath("ip", "TCP")
	if err := r.Register("good", good, core.Config{Strategy: core.StrategyVF2}); err != nil {
		t.Fatalf("wire-safe query rejected: %v", err)
	}
	r.Close()
	<-done
}

// TestRemoteStatsGauges checks the replica gauges round-trip from the
// remote worker (piggybacked on acknowledgments).
func TestRemoteStatsGauges(t *testing.T) {
	addr, _ := startRemoteWorker(t)
	edges := testStream(600)
	r := New(Config{Shards: 0, Remotes: []string{addr}, Window: 400})
	queries, strategies := testQueries(), testStrategies()
	for _, name := range sortedNames(queries) {
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	done := make(chan int64, 1)
	go func() { done <- r.Drain(nil) }()
	r.IngestBatch(edges)
	r.Close()
	if n := <-done; n == 0 {
		t.Fatal("no matches drained")
	}
	st := r.Stats()[0]
	if st.ReplicaStored == 0 || st.ReplicaEdges == 0 {
		t.Fatalf("replica gauges not populated: %+v", st)
	}
	if st.ReplicaTypes < 0 {
		t.Fatalf("filtered remote replica reports universal types: %+v", st)
	}
	if st.MatchesEmitted == 0 || st.EdgesRouted == 0 {
		t.Fatalf("counters not populated: %+v", st)
	}
}

// TestRemoteWireModes runs the cross-topology differential with
// Config.Wire set to its one value against a current server: the match
// multiset must equal the serial engine's.
func TestRemoteWireModes(t *testing.T) {
	edges := testStream(1000)
	const window = 300
	want := append([]string(nil), runSerial(t, edges, window)...)
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}
	addr, _ := startRemoteWorker(t)
	cfg := Config{Shards: 1, Remotes: []string{addr}, Window: window, Wire: WireAuto}
	got := runSharded(t, edges, cfg, 64)
	sort.Strings(got)
	if !equalStrings(got, want) {
		t.Fatalf("%d matches, want %d (multiset differs)", len(got), len(want))
	}
}

// TestRemoteMatchFloodOracle pins that a remote slot keeps reading its
// peer while a frame write is pending. A fake worker answers the first
// edge frame with 48 MiB of matches before it reads again, while the
// router still has 8 MiB of edge frames to write to it: the slot's
// writes wait for the peer to read, the peer's match writes wait for
// the slot's reader, so the reader must settle what it reads without
// waiting on the slot goroutine. Every match the fake sent must be
// delivered.
func TestRemoteMatchFloodOracle(t *testing.T) {
	const (
		floodMatches = 48 << 10 // 1 KiB names: 48 MiB of match frames
		batches      = 16
		batch        = 512 // 1 KiB names: 8 MiB of edge frames
	)
	name := func(prefix string, i int) string {
		s := fmt.Sprintf("%s%08d", prefix, i)
		return s + strings.Repeat("x", 1024-len(s))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		// The fake's own socket buffers are shrunk, so the router's
		// edge frames fill them long before it has written them all. A
		// receive buffer under loopback's 64 KiB segment size would
		// stall the connection itself.
		tc := c.(*net.TCPConn)
		if err := errors.Join(tc.SetWriteBuffer(4096), tc.SetReadBuffer(256<<10)); err != nil {
			t.Errorf("fake worker: %v", err)
			return
		}
		cn := dshard.NewConn(c)
		if typ, _, err := cn.ReadFrame(); err != nil || typ != dshard.FrameHello {
			return
		}
		if cn.WriteHelloAck(dshard.HelloAck{Version: dshard.ProtocolVersion}) != nil {
			return
		}
		for flooded := false; ; {
			typ, body, err := cn.ReadFrame()
			if err != nil {
				return // the router closed the connection
			}
			var frame, base uint64
			switch typ {
			case dshard.FrameRegister:
				var m dshard.Register
				m, err = cn.DecodeRegister(body)
				frame = m.Frame
			case dshard.FrameCheckpoint:
				var m dshard.Checkpoint
				m, err = dshard.DecodeCheckpoint(body)
				frame = m.Frame
			case dshard.FrameClose:
				var m dshard.CloseStream
				m, err = dshard.DecodeCloseStream(body)
				frame = m.Frame
			case dshard.FrameEdges:
				var m dshard.Edges
				m, err = cn.DecodeEdges(body)
				frame, base = m.Frame, m.BaseSeq
			default:
				err = fmt.Errorf("unexpected frame 0x%02x", typ)
			}
			if err != nil {
				t.Errorf("fake worker: %v", err)
				return
			}
			for i := 0; typ == dshard.FrameEdges && !flooded && i < floodMatches; i++ {
				err := cn.WriteMatch(dshard.Match{
					Frame: frame, Query: "flood", Seq: base,
					Bindings: []dshard.Binding{{QueryVertex: "a", DataVertex: name("m", i)}},
				})
				if err != nil {
					return
				}
			}
			flooded = flooded || typ == dshard.FrameEdges
			if cn.WriteDone(dshard.Done{Frame: frame}) != nil {
				return
			}
		}
	}()

	r := New(Config{Remotes: []string{ln.Addr().String()}, Window: 1 << 30})
	if err := r.Register("flood", query.NewPath("ip", "T"), core.Config{}); err != nil {
		t.Fatalf("register: %v", err)
	}
	drained := make(chan int64, 1)
	go func() { drained <- r.Drain(nil) }()
	go func() {
		for b := 0; b < batches; b++ {
			edges := make([]stream.Edge, batch)
			for i := range edges {
				edges[i] = stream.Edge{
					Src: name("e", b*batch+i), SrcLabel: "ip", Dst: "d", DstLabel: "ip",
					Type: "T", TS: int64(b*batch + i + 1),
				}
			}
			r.IngestBatch(edges)
		}
		r.Close()
	}()
	select {
	case n := <-drained:
		if n != floodMatches {
			t.Fatalf("%d matches delivered, the peer sent %d", n, floodMatches)
		}
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Logf("goroutines:\n%s", buf[:runtime.Stack(buf, true)])
		t.Fatal("the remote slot wedged: no close after 30 s")
	}
}

// TestRemoteProtocolViolationDifferential drives a protocol violation
// through a remote slot. A relay between the slot and a real worker
// writes one done frame twice on its first connection, after the
// frame's matches were delivered. The slot must drop the connection,
// redial through the relay (which then passes bytes through unchanged)
// and replay, ending with the serial engine's match multiset over
// exactly two connections.
func TestRemoteProtocolViolationDifferential(t *testing.T) {
	edges := testStream(1500)
	const window = 400
	want := append([]string(nil), runSerial(t, edges, window)...)
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}
	addr, _ := startRemoteWorker(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	var violated atomic.Bool
	// relay copies the slot's bytes to the worker unchanged and the
	// worker's back frame by frame, writing the first done after a
	// match twice when violate is set.
	relay := func(slot, worker net.Conn, violate bool) {
		defer slot.Close()
		defer worker.Close()
		go func() {
			io.Copy(worker, slot)
			slot.Close()
			worker.Close()
		}()
		sawMatch := false
		var hdr [4]byte
		for {
			if _, err := io.ReadFull(worker, hdr[:]); err != nil {
				return
			}
			frame := make([]byte, 4+binary.BigEndian.Uint32(hdr[:]))
			copy(frame, hdr[:])
			if _, err := io.ReadFull(worker, frame[4:]); err != nil {
				return
			}
			writes := 1
			switch typ := frame[4]; {
			case typ == dshard.FrameMatch:
				sawMatch = true
			case typ == dshard.FrameDone && violate && sawMatch && !violated.Load():
				violated.Store(true)
				writes = 2
			}
			for ; writes > 0; writes-- {
				if _, err := slot.Write(frame); err != nil {
					return
				}
			}
		}
	}
	go func() {
		for first := true; ; first = false {
			slot, err := ln.Accept()
			if err != nil {
				return
			}
			worker, err := net.Dial("tcp", addr)
			if err != nil {
				slot.Close()
				continue
			}
			go relay(slot, worker, first)
		}
	}()

	r := New(Config{Shards: 1, Remotes: []string{ln.Addr().String()}, Window: window})
	queries, strategies := testQueries(), testStrategies()
	for _, name := range sortedNames(queries) {
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	var got []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drain(func(m Match) { got = append(got, matchSig(m)) })
	}()
	for lo := 0; lo < len(edges); lo += 64 {
		r.IngestBatch(edges[lo:min(lo+64, len(edges))])
	}
	r.Close()
	<-done
	if !violated.Load() {
		t.Fatal("the relay never duplicated a done; the violation path did not run")
	}
	if n := metricValue(t, r.Metrics().Snapshot(), "sg_dshard_connects_total", "shard", "1"); n != 2 {
		t.Fatalf("%d connections, want 2: the violation must cost exactly one reconnect", n)
	}
	sort.Strings(got)
	if !equalStrings(got, want) {
		t.Fatalf("%d matches, want %d (multiset differs)", len(got), len(want))
	}
}
