package shard

// Durable-runtime differentials: a router restarted from its data
// directory — cleanly or by kill -9 — must reproduce the serial
// engine's matches on the full stream, and the checkpoint cadence
// must bound what a long-lived remote registration pins in the log.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// registerAll registers the standard test queries on r, skipping any
// that a recovery already restored.
func registerAll(t *testing.T, r *Router) {
	t.Helper()
	have := make(map[string]bool)
	for _, name := range r.Registered() {
		have[name] = true
	}
	queries, strategies := testQueries(), testStrategies()
	for _, name := range sortedNames(queries) {
		if have[name] {
			continue
		}
		if err := r.Register(name, queries[name], core.Config{Strategy: strategies[name]}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
}

// TestDurableCleanRestartMatchesSerial closes a durable router
// mid-stream and reopens it: the recovered engines (snapshot + log
// tail) must continue the stream exactly — the combined match multiset
// equals the serial oracle, with no duplicates, because a clean Close
// commits everything it emitted.
func TestDurableCleanRestartMatchesSerial(t *testing.T) {
	edges := testStream(1500)
	const window = 400
	want := append([]string(nil), runSerial(t, edges, window)...)
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}
	for _, cut := range []int{731, 1024} { // mid-batch and batch-aligned restart points
		dir := t.TempDir()
		cfg := Config{Shards: 2, Window: window, DataDir: dir, CheckpointEvery: 128}
		var mu sync.Mutex
		var got []string
		collect := func(m Match) {
			mu.Lock()
			got = append(got, matchSig(m))
			mu.Unlock()
		}

		r, recovered, err := Open(cfg)
		if err != nil {
			t.Fatalf("cold open: %v", err)
		}
		if len(recovered) != 0 {
			t.Fatalf("cold open recovered %d matches from an empty dir", len(recovered))
		}
		registerAll(t, r)
		done := make(chan struct{})
		go func() { defer close(done); r.Drain(collect) }()
		for lo := 0; lo < cut; lo += 37 {
			hi := lo + 37
			if hi > cut {
				hi = cut
			}
			r.IngestBatch(edges[lo:hi])
		}
		r.Close()
		<-done
		if err := r.PersistErr(); err != nil {
			t.Fatalf("persist error before restart: %v", err)
		}

		r2, recovered, err := Open(cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := r2.Registered(); len(got) != 3 {
			t.Fatalf("reopen restored %d registrations, want 3: %v", len(got), got)
		}
		if r2.EdgesRouted() != uint64(cut) {
			t.Fatalf("reopen resumes at seq %d, want %d", r2.EdgesRouted(), cut)
		}
		for _, m := range recovered {
			collect(m) // clean close: replay tail is empty, but tolerate re-emits symmetrically
		}
		done = make(chan struct{})
		go func() { defer close(done); r2.Drain(collect) }()
		for lo := cut; lo < len(edges); lo += 37 {
			hi := lo + 37
			if hi > len(edges) {
				hi = len(edges)
			}
			r2.IngestBatch(edges[lo:hi])
		}
		r2.Close()
		<-done

		sort.Strings(got)
		if !equalStrings(got, want) {
			t.Fatalf("cut=%d: restarted run differs from serial: %d matches, want %d", cut, len(got), len(want))
		}
	}
}

// TestDurableRemoveSlotReopenDifferential: a slot removed mid-stream
// from a durable router migrates its queries to the survivor before it
// retires, so a clean Close and reopen restores all three
// registrations, and the stream fed across the removal and the restart
// reproduces the serial oracle's match multiset — whichever slot was
// removed, mid-batch or batch-aligned.
func TestDurableRemoveSlotReopenDifferential(t *testing.T) {
	edges := testStream(1500)
	const window = 400
	want := append([]string(nil), runSerial(t, edges, window)...)
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}
	feed := func(r *Router, lo, hi int) {
		for ; lo < hi; lo += 37 {
			r.IngestBatch(edges[lo:min(lo+37, hi)])
		}
	}
	for _, removed := range []int{0, 1} {
		for _, cut := range []int{731, 1024} {
			cfg := Config{Shards: 2, Window: window, DataDir: t.TempDir(), CheckpointEvery: 128}
			var mu sync.Mutex
			var got []string
			collect := func(m Match) {
				mu.Lock()
				got = append(got, matchSig(m))
				mu.Unlock()
			}

			r, _, err := Open(cfg)
			if err != nil {
				t.Fatalf("cold open: %v", err)
			}
			registerAll(t, r)
			done := make(chan struct{})
			go func() { defer close(done); r.Drain(collect) }()
			feed(r, 0, cut/2)
			if err := r.RemoveSlot(removed); err != nil {
				t.Fatalf("RemoveSlot(%d): %v", removed, err)
			}
			feed(r, cut/2, cut)
			r.Close()
			<-done
			if err := r.PersistErr(); err != nil {
				t.Fatalf("persist error before restart: %v", err)
			}

			r2, recovered, err := Open(cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if names := r2.Registered(); len(names) != 3 {
				t.Fatalf("removed=%d cut=%d: reopen restored %d registrations, want 3: %v", removed, cut, len(names), names)
			}
			// The tombstone survived the reopen: the slot is retired, and
			// a new registration (of a type the stream never carries, so
			// the match multiset is unchanged) lands on the survivor.
			if !slotRetired(r2, removed) {
				t.Fatalf("removed=%d cut=%d: the removed slot is live again after the reopen", removed, cut)
			}
			if err := r2.Register("probe", query.NewPath("ip", "NOPE", "NOPE"), core.Config{Strategy: core.StrategySingle}); err != nil {
				t.Fatalf("removed=%d cut=%d: register after the reopen: %v", removed, cut, err)
			}
			if on := ownerSlot(r2, "probe"); on != 1-removed {
				t.Fatalf("removed=%d cut=%d: a registration after the reopen landed on slot %d, want %d", removed, cut, on, 1-removed)
			}
			for _, m := range recovered {
				collect(m)
			}
			done = make(chan struct{})
			go func() { defer close(done); r2.Drain(collect) }()
			feed(r2, cut, len(edges))
			r2.Close()
			<-done

			sort.Strings(got)
			if !equalStrings(got, want) {
				t.Fatalf("removed=%d cut=%d: run across removal and restart differs from serial: %d matches, want %d",
					removed, cut, len(got), len(want))
			}
		}
	}
}

// TestDurableRegisterRefusesUnsafeQuery: every checkpoint image stores
// a query as text that a reopen reparses, so a durable local-only
// router refuses a query that does not survive that round trip — with
// the error a remote topology gives — and the wire-safe query beside it
// survives Close and Open.
func TestDurableRegisterRefusesUnsafeQuery(t *testing.T) {
	bad := &query.Graph{
		Vertices: []query.Vertex{{Name: "host a", Label: "ip"}, {Name: "b", Label: "ip"}},
		Edges:    []query.Edge{{Src: 0, Dst: 1, Type: "TCP"}},
	}
	cfgQ := core.Config{Strategy: core.StrategySingle}

	addr, _ := startRemoteWorker(t)
	rr := New(Config{Remotes: []string{addr}})
	remoteErr := rr.Register("bad", bad, cfgQ)
	rr.Close()
	if remoteErr == nil {
		t.Fatal("whitespace vertex name registered on a remote topology")
	}

	cfg := Config{Shards: 1, DataDir: t.TempDir()}
	r, _, err := Open(cfg)
	if err != nil {
		t.Fatalf("cold open: %v", err)
	}
	done := make(chan int64, 1)
	go func() { done <- r.Drain(nil) }()
	err = r.Register("bad", bad, cfgQ)
	if err == nil || err.Error() != remoteErr.Error() {
		t.Fatalf("durable register of a query that cannot be reopened: err %v, want %q", err, remoteErr)
	}
	if err := r.Register("good", query.NewPath("ip", "TCP"), cfgQ); err != nil {
		t.Fatalf("wire-safe query refused: %v", err)
	}
	r.IngestBatch(testStream(300))
	r.Close()
	<-done
	if err := r.PersistErr(); err != nil {
		t.Fatalf("persist error before reopen: %v", err)
	}

	r2, _, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	go func() { done <- r2.Drain(nil) }()
	names := r2.Registered()
	r2.Close()
	<-done
	if !reflect.DeepEqual(names, []string{"good"}) {
		t.Fatalf("reopen restored %v, want [good]", names)
	}
}

// TestRecoveryLoadGaugeTruthful: sg_recovery_load_ns reports time an
// Open that loaded slot checkpoints really spent — some, and no more
// than the whole Open took by the test's own clock.
func TestRecoveryLoadGaugeTruthful(t *testing.T) {
	edges := testStream(600)
	cfg := Config{Shards: 2, Window: 400, DataDir: t.TempDir(), CheckpointEvery: 128}
	r, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerAll(t, r)
	done := make(chan struct{})
	go func() { defer close(done); r.Drain(nil) }()
	r.IngestBatch(edges)
	r.Close()
	<-done
	if err := r.PersistErr(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Shards; i++ {
		if _, err := os.Stat(slotPath(cfg.DataDir, i)); err != nil {
			t.Fatalf("no checkpoint of slot %d to load: %v", i, err)
		}
	}

	t0 := time.Now()
	r2, _, err := Open(cfg)
	wall := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	done = make(chan struct{})
	go func() { defer close(done); r2.Drain(nil) }()
	defer func() { r2.Close(); <-done }()
	if got := metricValue(t, r2.Metrics().Snapshot(), "sg_recovery_load_ns"); got <= 0 || got > int64(wall) {
		t.Fatalf("sg_recovery_load_ns = %d, want in (0, %d], the wall clock around Open", got, int64(wall))
	}
}

// TestDurableCheckpointAdvancesPin is the acceptance test for the
// tentpole bugfix: with checkpointing enabled, a long-lived lazy
// remote registration must NOT pin the edge log at its
// registration-time window floor forever. The pin floor, the
// in-memory log's first retained seq, and the durable log's first
// retained seq must all advance past the registration's floor as
// snapshot checkpoints retire the replay entitlement.
func TestDurableCheckpointAdvancesPin(t *testing.T) {
	addr, _ := startRemoteWorker(t)
	const window = 100
	edges := testStream(4000)

	cfg := Config{
		Shards: 0, Remotes: []string{addr}, Window: window,
		DataDir: t.TempDir(), CheckpointEvery: 64, SegmentBytes: 4 << 10,
	}
	r, _, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	registerAll(t, r) // lazy gre-tcp lives on the remote slot for the whole stream
	done := make(chan int64, 1)
	go func() { done <- r.Drain(nil) }()

	// The registration-time window floor the PR 5 runtime would have
	// frozen the pin at: the log is empty, so it is at most 1-window.
	// (Sampling pinFloor here races with the Register-triggered
	// checkpoint round, which can retire the pin immediately.)
	rs := r.workers[0]
	regFloor := int64(1 - window)

	deadline := time.Now().Add(15 * time.Second)
	lo, batch := 0, 64
	advanced := false
	for time.Now().Before(deadline) {
		if lo < len(edges) {
			hi := lo + batch
			if hi > len(edges) {
				hi = len(edges)
			}
			r.IngestBatch(edges[lo:hi])
			lo = hi
		} else {
			// Keep the stream moving so trims keep running while the last
			// snapshot round's acknowledgment lands.
			r.IngestBatch([]stream.Edge{{Src: "x", SrcLabel: "ip", Dst: "y", DstLabel: "ip", Type: "TCP", TS: edges[len(edges)-1].TS + 1}})
		}
		memFirst, _ := r.log.FirstSeq()
		if rs.pinFloor() > regFloor && memFirst > 0 && r.dlog.FirstSeq() > 0 {
			advanced = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	memFirst, _ := r.log.FirstSeq()
	if !advanced {
		t.Fatalf("pin never advanced: pinFloor=%d (registration floor %d), log firstSeq=%d, durable firstSeq=%d",
			rs.pinFloor(), regFloor, memFirst, r.dlog.FirstSeq())
	}
	if n, total := r.log.NumEdges(), r.EdgesRouted(); uint64(n) >= total {
		t.Fatalf("in-memory log still retains all %d of %d edges", n, total)
	}
	r.Close()
	<-done
	if err := r.PersistErr(); err != nil {
		t.Fatalf("persist error: %v", err)
	}

	// Negative control — the PR 5 failure mode: with checkpoints
	// effectively disabled, the registration floor pins the in-memory
	// log forever and the first retained seq never moves.
	r2 := New(Config{Shards: 0, Remotes: []string{addr}, Window: window, CheckpointEvery: 1 << 30})
	registerAll(t, r2)
	done2 := make(chan int64, 1)
	go func() { done2 <- r2.Drain(nil) }()
	for lo := 0; lo < len(edges); lo += 64 {
		hi := lo + 64
		if hi > len(edges) {
			hi = len(edges)
		}
		r2.IngestBatch(edges[lo:hi])
	}
	first, ok := r2.log.FirstSeq()
	if ok && first != 0 {
		t.Fatalf("control run trimmed the log to seq %d despite the registration pin", first)
	}
	if n := r2.log.NumEdges(); n != len(edges) {
		t.Fatalf("control run retains %d edges, want all %d (unbounded pin)", n, len(edges))
	}
	r2.Close()
	<-done2
}

// crashStreamLen and the child's config are shared by the kill -9
// differential's parent and re-exec'd child.
const crashStreamLen = 3000

func crashChildConfig(dir string) Config {
	return Config{Shards: 2, Window: 400, DataDir: dir, CheckpointEvery: 96}
}

// TestCrashRecoveryChild is the re-exec helper for
// TestCrashRecoveryDifferential: it opens (or recovers) the durable
// router, appends every delivered match signature to the shared log
// file, and streams from wherever the durable log says the previous
// process died. Skipped unless the parent set its environment.
func TestCrashRecoveryChild(t *testing.T) {
	dir := os.Getenv("SG_CRASH_DIR")
	outPath := os.Getenv("SG_CRASH_OUT")
	if dir == "" || outPath == "" {
		t.Skip("re-exec helper; driven by TestCrashRecoveryDifferential")
	}
	out, err := os.OpenFile(outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open match log: %v", err)
	}
	defer out.Close()
	var wmu sync.Mutex
	emit := func(m Match) {
		// One write(2) per line: the durable delivery barrier guarantees
		// any match covered by a committed checkpoint had this callback
		// complete first, so a kill -9 can only ever lose lines the next
		// run re-emits.
		wmu.Lock()
		fmt.Fprintf(out, "%s\n", matchSig(m))
		wmu.Unlock()
	}

	r, recovered, err := Open(crashChildConfig(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, m := range recovered {
		emit(m)
	}
	done := make(chan struct{})
	go func() { defer close(done); r.Drain(emit) }()
	registerAll(t, r)

	edges := testStream(crashStreamLen)
	const batch = 23
	for lo := int(r.EdgesRouted()); lo < len(edges); lo += batch {
		hi := lo + batch
		if hi > len(edges) {
			hi = len(edges)
		}
		r.IngestBatch(edges[lo:hi])
	}
	r.Close()
	<-done
	if err := r.PersistErr(); err != nil {
		t.Fatalf("persist error: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "DONE"), []byte("ok\n"), 0o644); err != nil {
		t.Fatalf("write sentinel: %v", err)
	}
}

// TestCrashRecoveryDifferential kills -9 a child process mid-stream,
// over and over, until one run survives to the end; the union of every
// run's delivered matches must equal the serial oracle's as a
// content-unique set (delivery across a crash is at-least-once, so
// duplicates are expected and losses are the bug).
func TestCrashRecoveryDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash schedule; skipped in -short")
	}
	edges := testStream(crashStreamLen)
	want := make(map[string]bool)
	for _, sig := range runSerial(t, edges, 400) {
		want[sig] = true
	}
	if len(want) == 0 {
		t.Fatal("workload produced no matches; differential is vacuous")
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	root := t.TempDir()
	dataDir := filepath.Join(root, "data")
	outPath := filepath.Join(root, "matches.log")
	sentinel := filepath.Join(dataDir, "DONE")

	kills := 0
	completed := false
	for attempt := 0; attempt < 60 && !completed; attempt++ {
		cmd := exec.Command(exe, "-test.run", "^TestCrashRecoveryChild$")
		cmd.Env = append(os.Environ(), "SG_CRASH_DIR="+dataDir, "SG_CRASH_OUT="+outPath)
		var output strings.Builder
		cmd.Stdout, cmd.Stderr = &output, &output
		if err := cmd.Start(); err != nil {
			t.Fatalf("start child: %v", err)
		}
		wait := make(chan error, 1)
		go func() { wait <- cmd.Wait() }()
		// Grow the grace period exponentially so every schedule eventually
		// finishes even on a slow (race-instrumented) machine; early
		// attempts die young, often mid-recovery.
		delay := time.Duration(12*(1<<uint(attempt/4))) * time.Millisecond
		if delay > 10*time.Second {
			delay = 10 * time.Second
		}
		select {
		case err := <-wait:
			if _, serr := os.Stat(sentinel); serr == nil {
				completed = true
			} else {
				t.Fatalf("child exited without finishing (err=%v):\n%s", err, output.String())
			}
		case <-time.After(delay):
			cmd.Process.Kill() // SIGKILL: no handlers, no flushes, no goodbyes
			<-wait
			kills++
		}
	}
	if !completed {
		t.Fatal("no child run completed within the kill schedule")
	}
	if kills == 0 {
		t.Fatal("first child outran the kill timer; crash schedule is vacuous")
	}

	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("read match log: %v", err)
	}
	lines := strings.Split(string(data), "\n")
	if last := lines[len(lines)-1]; last != "" {
		lines = lines[:len(lines)-1] // torn final write of a killed run; its match was uncovered and re-emitted
	}
	got := make(map[string]bool)
	for _, ln := range lines {
		if ln != "" {
			got[ln] = true
		}
	}
	for sig := range want {
		if !got[sig] {
			t.Errorf("match lost across %d kills: %s", kills, sig)
		}
	}
	for sig := range got {
		if !want[sig] {
			t.Errorf("spurious match after %d kills: %s", kills, sig)
		}
	}
	t.Logf("crash differential: %d kills, %d unique matches", kills, len(got))
}

// TestOpenValidation pins the durable-mode entry checks.
func TestOpenValidation(t *testing.T) {
	if _, _, err := Open(Config{Shards: 1}); err == nil {
		t.Fatal("Open without DataDir succeeded")
	}
	if _, _, err := Open(Config{Shards: 1, DataDir: t.TempDir(), Ordered: true}); err == nil {
		t.Fatal("Open with Ordered succeeded")
	}
}

// TestMetaFileRoundTrip pins the router.meta codec, and that a file
// from a router that still saved a collector loads with the block
// skipped and every registration intact.
func TestMetaFileRoundTrip(t *testing.T) {
	in := routerMeta{
		ckptSeq: 4242,
		regs: []metaReg{
			{
				name: "q1", slot: 1, rank: 0, fpTypes: []string{"GRE", "TCP"}, fpExact: true,
				query: "path(a:ip)-[GRE]->(b:ip)-[TCP]->(c:ip)",
				cfg: core.Config{
					Strategy: core.StrategySingleLazy, MaxMatchesPerSearch: 7,
					MaxWorkPerEdge: -1, MaxStepsPerSearch: 99,
					Leaves: [][]int{{0}, {1}},
				},
			},
			{name: "q2", slot: 0, rank: 3, fpExact: false, query: "x", cfg: core.Config{Strategy: core.StrategyVF2}},
		},
	}
	path := filepath.Join(t.TempDir(), "router.meta")
	if err := writeMetaFile(path, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := readMetaFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if out.ckptSeq != in.ckptSeq {
		t.Fatalf("ckptSeq %d, want %d", out.ckptSeq, in.ckptSeq)
	}
	if len(out.regs) != 2 {
		t.Fatalf("%d regs, want 2", len(out.regs))
	}
	r1 := out.regs[0]
	if r1.name != "q1" || r1.slot != 1 || r1.rank != 0 || !r1.fpExact ||
		strings.Join(r1.fpTypes, ",") != "GRE,TCP" || r1.query != in.regs[0].query {
		t.Fatalf("reg q1 did not round-trip: %+v", r1)
	}
	c := r1.cfg
	if c.Strategy != core.StrategySingleLazy || c.MaxMatchesPerSearch != 7 || c.MaxWorkPerEdge != -1 ||
		c.MaxStepsPerSearch != 99 || len(c.Leaves) != 2 || c.Leaves[1][0] != 1 {
		t.Fatalf("reg cfg did not round-trip: %+v", c)
	}
	if out.regs[1].cfg.Leaves != nil {
		t.Fatal("nil leaves decoded non-nil")
	}
	// Missing file is a cold start, not an error.
	if m, err := readMetaFile(filepath.Join(t.TempDir(), "absent")); err != nil || m != nil {
		t.Fatalf("absent meta: %v, %v", m, err)
	}

	// The same registry as an older router wrote it: a collector block
	// (totals, one row of each histogram, one vertex with two incident
	// counters) between the round seq and the registrations.
	old := filepath.Join(t.TempDir(), "router.meta")
	err = writeFileAtomic(old, func(w *bufio.Writer) error {
		w.WriteString(metaMagic)
		putUvarint(w, in.ckptSeq)
		putBool(w, true)
		putVarint(w, 3) // EdgeTotal
		putVarint(w, 2) // PathTotal
		putUvarint(w, 1)
		putString(w, "TCP")
		putVarint(w, 3)
		putUvarint(w, 1)
		putString(w, "TCP")
		putUvarint(w, 0)
		putString(w, "TCP")
		putUvarint(w, 1)
		putVarint(w, 2)
		putUvarint(w, 1)
		putString(w, "h1")
		putUvarint(w, 2)
		for dir := uint64(0); dir < 2; dir++ {
			putString(w, "TCP")
			putUvarint(w, dir)
			putVarint(w, 1)
		}
		putUvarint(w, uint64(len(in.regs)))
		for _, reg := range in.regs {
			if err := writeMetaReg(w, reg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// ... and whose registrations carried a search-pool size, in the slot
	// between MaxStepsPerSearch (99) and the leaves flag, now written as 0.
	raw, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	was, is := []byte{0x07, 0x01, 0xc6, 0x01, 0x00, 0x01}, []byte{0x07, 0x01, 0xc6, 0x01, 0x02, 0x01}
	if bytes.Count(raw, was) != 1 {
		t.Fatal("cannot locate q1's config in router.meta")
	}
	if err := os.WriteFile(old, bytes.Replace(raw, was, is, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	legacy, err := readMetaFile(old)
	if err != nil {
		t.Fatalf("read of a meta file with a collector block: %v", err)
	}
	if !reflect.DeepEqual(legacy, out) {
		t.Fatalf("old-format meta decoded to %+v, want %+v", legacy, out)
	}
}
