package shard

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"regexp"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/dshard"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// answer is what a slot's host answered one message with: the matches
// (canonical strings), the snapshot payload, the done.
type answer struct {
	matches []string
	snap    []byte
	done    dshard.Done
}

func answerSig(frame, seq uint64, queryName string, rank int, bs []Binding, es []MatchEdge, first, last int64) string {
	return fmt.Sprintf("f%d s%d %s r%d %v %v [%d,%d]", frame, seq, queryName, rank, bs, es, first, last)
}

// recorder is an in-process host's Replier: it resolves every match at
// once (the engine's matches are valid until its next call) and keeps
// the answer of the message being written.
type recorder struct {
	slot *dshard.Slot
	cur  answer
}

func (r *recorder) Matches(frame, seq uint64, nms []core.NamedMatch) {
	for _, nm := range nms {
		bs, es, rank := r.slot.AppendResolved(nil, nil, nm)
		r.cur.matches = append(r.cur.matches, answerSig(frame, seq, nm.Query, rank, bs, es, nm.Match.MinTS, nm.Match.MaxTS))
	}
}

func (r *recorder) Flushed(frame, seq uint64, nms []core.NamedMatch) { r.Matches(frame, seq, nms) }

func (r *recorder) Snapshot(m dshard.Snapshot) error { r.cur.snap = m.Data; return nil }
func (r *recorder) Done(d dshard.Done) error         { r.cur.done = d; return nil }

// readAnswer reads a connection's frames up to the done of frame.
func readAnswer(t *testing.T, cn *dshard.Conn, frame uint64) answer {
	t.Helper()
	var a answer
	for {
		typ, body, err := cn.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		switch typ {
		case dshard.FrameMatch:
			m, err := cn.DecodeMatch(body)
			if err != nil || m.Frame != frame {
				t.Fatalf("match of frame %d (err %v) while answering frame %d", m.Frame, err, frame)
			}
			a.matches = append(a.matches, answerSig(m.Frame, m.Seq, m.Query, m.Rank, m.Bindings, m.Edges, m.FirstTS, m.LastTS))
		case dshard.FrameSnapshot:
			m, err := dshard.DecodeSnapshot(body)
			if err != nil || m.Frame != frame {
				t.Fatalf("snapshot of frame %d (err %v) while answering frame %d", m.Frame, err, frame)
			}
			a.snap = append([]byte(nil), m.Data...)
		case dshard.FrameDone:
			d, err := dshard.DecodeDone(body)
			if err != nil || d.Frame != frame {
				t.Fatalf("done of frame %d (err %v) while answering frame %d", d.Frame, err, frame)
			}
			a.done = d
			return a
		default:
			t.Fatalf("unexpected frame 0x%02x", typ)
		}
	}
}

// TestTransportDifferential runs one slot script through both
// transports the slot loop drives — an in-process dshard.Host and a
// dshard.Conn to a real dshard.Server on loopback — and requires the
// same answer to every message: the match multiset, the handed-over
// state, the checkpoint image, and each done's error and Report. The
// script registers two queries with backfill, feeds edge batches (one
// of them a suppressed replay frame), hands one query over with a
// migrate unregister, checkpoints and closes.
func TestTransportDifferential(t *testing.T) {
	const window = 400
	edges := testStream(1500)
	inWindow := func(end int, types ...string) []stream.Edge {
		var out []stream.Edge
		for _, se := range edges[:end] {
			if se.TS >= edges[end-1].TS-window+1 && strings.Contains(strings.Join(types, " "), se.Type) {
				out = append(out, se)
			}
		}
		return out
	}
	reg := func(frame uint64, name string, q *query.Graph, strategy core.Strategy, rank int, backfill []stream.Edge, types ...string) dshard.Register {
		return dshard.Register{
			Frame: frame, Name: name, Seq: 300, Rank: rank, Query: q.String(), Graph: q,
			Strategy: int(strategy), HasLeaves: true, Leaves: [][]int{{0}, {1}},
			FilterTypes: types, Backfill: backfill,
		}
	}
	queries := testQueries()
	script := []func(tr transport) error{
		func(tr transport) error {
			return tr.WriteRegister(reg(1, "gre-tcp", queries["gre-tcp"], core.StrategySingleLazy, 0,
				inWindow(300, "GRE", "TCP"), "GRE", "TCP"))
		},
		func(tr transport) error {
			return tr.WriteRegister(reg(2, "udp-icmp", queries["udp-icmp"], core.StrategySingle, 1,
				inWindow(300, "UDP", "ICMP"), "GRE", "ICMP", "TCP", "UDP"))
		},
		func(tr transport) error {
			return tr.WriteEdges(dshard.Edges{Frame: 3, BaseSeq: 300, Edges: edges[300:600]})
		},
		func(tr transport) error {
			return tr.WriteEdges(dshard.Edges{Frame: 4, Suppress: true, BaseSeq: 600, Edges: edges[600:900]})
		},
		func(tr transport) error {
			return tr.WriteEdges(dshard.Edges{Frame: 5, BaseSeq: 900, Edges: edges[900:1200]})
		},
		func(tr transport) error {
			return tr.WriteUnregister(dshard.Unregister{Frame: 6, Name: "gre-tcp", Seq: 1200, FilterTypes: []string{"ICMP", "UDP"}, Migrate: true})
		},
		func(tr transport) error {
			return tr.WriteEdges(dshard.Edges{Frame: 7, BaseSeq: 1200, Edges: edges[1200:]})
		},
		func(tr transport) error { return tr.WriteCheckpoint(dshard.Checkpoint{Frame: 8}) },
		func(tr transport) error {
			return tr.WriteCloseStream(dshard.CloseStream{Frame: 9, FinalSeq: uint64(len(edges))})
		},
	}

	// In-process: each write is answered before it returns.
	rec := &recorder{slot: dshard.NewSlot(core.NewMulti(core.MultiConfig{Window: window}), false)}
	var host transport = dshard.NewHost(rec.slot, rec)
	var local []answer
	for i, write := range script {
		rec.cur = answer{}
		if err := write(host); err != nil {
			t.Fatalf("in-process message %d: %v", i+1, err)
		}
		local = append(local, rec.cur)
	}

	addr, _ := startRemoteWorker(t)
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cn := dshard.NewConn(c)
	defer cn.Close()
	if err := cn.WriteHello(dshard.Hello{Version: dshard.ProtocolVersion, Window: window}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := cn.ReadFrame(); err != nil || typ != dshard.FrameHelloAck {
		t.Fatalf("hello: frame 0x%02x, err %v", typ, err)
	}
	var conn transport = cn
	var remote []answer
	for i, write := range script {
		if err := write(conn); err != nil {
			t.Fatalf("remote message %d: %v", i+1, err)
		}
		remote = append(remote, readAnswer(t, cn, uint64(i+1)))
	}

	var matches, suppressed int
	for i := range script {
		l, r := local[i], remote[i]
		sort.Strings(l.matches)
		sort.Strings(r.matches)
		if !reflect.DeepEqual(l.matches, r.matches) {
			t.Errorf("message %d: %d matches in-process, %d remote, or different ones", i+1, len(l.matches), len(r.matches))
		}
		if !bytes.Equal(l.snap, r.snap) {
			t.Errorf("message %d: snapshot of %d bytes in-process, %d remote, or different ones", i+1, len(l.snap), len(r.snap))
		}
		if l.done != r.done {
			t.Errorf("message %d: done %+v in-process, %+v remote", i+1, l.done, r.done)
		}
		if l.done.Err != "" {
			t.Errorf("message %d: refused: %s", i+1, l.done.Err)
		}
		matches += len(l.matches)
		if i == 3 {
			suppressed = len(l.matches)
		}
	}
	t.Logf("%d matches, handover state %d bytes, checkpoint image %d bytes", matches, len(local[5].snap), len(local[7].snap))
	// The script must exercise what it claims to.
	if matches == 0 || suppressed != 0 || local[5].snap == nil || local[7].snap == nil || local[1].done.Report.Stored == 0 {
		t.Fatalf("vacuous script: %d matches (%d from the suppressed frame), handover state %d bytes, checkpoint image %d bytes, %d edges stored after the registrations",
			matches, suppressed, len(local[5].snap), len(local[7].snap), local[1].done.Report.Stored)
	}
}

// labelledStacks reads the goroutine profile and returns, per value of
// the shard profiler label, the stacks of the goroutines carrying it.
func labelledStacks(t *testing.T) map[string][]string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	label := regexp.MustCompile(`^# labels: \{.*"shard":"(\d+)".*\}$`)
	out := make(map[string][]string)
	// Records are separated by blank lines: "N @ pcs", an optional
	// labels line, then one "#\t" line per frame.
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		lines := strings.Split(rec, "\n")
		for i, line := range lines {
			if m := label.FindStringSubmatch(line); m != nil && i > 0 {
				n, _ := strconv.Atoi(strings.Fields(lines[i-1])[0])
				for range n {
					out[m[1]] = append(out[m[1]], strings.Join(lines[i+1:], "\n"))
				}
			}
		}
	}
	return out
}

// TestSlotGoroutinesLabelled pins the per-slot profiler label: every
// live slot runs exactly one slot loop under shard=<id>, a remote
// slot's connection reader inherits the label, and a retired slot's
// loop is gone. Routers other tests left running carry the same labels,
// so the counts are taken against the profile before this router.
func TestSlotGoroutinesLabelled(t *testing.T) {
	addr, _ := startRemoteWorker(t)
	count := func(fn string) [3]int {
		stacks := labelledStacks(t)
		var n [3]int
		for id := range n {
			for _, s := range stacks[strconv.Itoa(id)] {
				if strings.Contains(s, fn) {
					n[id]++
				}
			}
		}
		return n
	}
	loops0, readers0 := count("(*worker).loop"), count("(*worker).reader")
	r := New(Config{Shards: 2, Remotes: []string{addr}, Window: 100})
	done := make(chan int64, 1)
	go func() { done <- r.Drain(nil) }()
	defer func() {
		r.Close()
		<-done
	}()
	want := func(loops, readers [3]int) bool {
		for id := range loops {
			loops[id] -= loops0[id]
			readers[id] -= readers0[id]
		}
		return loops == [3]int{1, 1, 1} && readers == [3]int{0, 0, 1}
	}
	deadline := time.Now().Add(10 * time.Second)
	for loops, readers := count("(*worker).loop"), count("(*worker).reader"); !want(loops, readers); loops, readers = count("(*worker).loop"), count("(*worker).reader") {
		if time.Now().After(deadline) {
			t.Fatalf("slot loops labelled shard=0,1,2: %v (before: %v), connection readers: %v (before: %v); want one loop each and slot 2's reader",
				loops, loops0, readers, readers0)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.RemoveSlot(1); err != nil {
		t.Fatal(err)
	}
	for count("(*worker).loop")[1] != loops0[1] {
		if time.Now().After(deadline) {
			t.Fatal("retired slot 1's loop still runs")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFlushedMatchesLifetime pins the in-process answer's two match
// lifetimes: a batch's rows wait in pend for the frame's done (the
// engine is untouched until then), while what a control point's flush
// barrier completes is resolved and delivered before Flushed returns,
// since the host goes on to register, remove or trim.
func TestFlushedMatchesLifetime(t *testing.T) {
	w := primedWorker(t, Config{OutLen: 1 << 20}) // nothing consumes; the budget never binds
	nms := make([]core.NamedMatch, len(w.pend))
	for i, p := range w.pend {
		nms[i] = p.nm
	}
	w.pend = w.pend[:0]
	w.Matches(1, 7, nms)
	if len(w.r.out) != 0 || len(w.pend) != len(nms) {
		t.Fatalf("a batch's rows: %d blocks delivered, %d of %d matches pending; want none delivered, all pending", len(w.r.out), len(w.pend), len(nms))
	}
	w.pend = w.pend[:0]
	w.Flushed(2, 7, nms)
	delivered := 0
	for len(w.r.out) > 0 {
		b := <-w.r.out
		delivered += len(b.matches)
	}
	if delivered != len(nms) || len(w.pend) != 0 {
		t.Fatalf("a flush barrier's matches: %d of %d delivered, %d still pending; want all delivered", delivered, len(nms), len(w.pend))
	}
}

// TestFailoverRefusedSnapshotStaysDown pins the one way an in-process
// rebuild can fail: a snapshot the host cannot restore (a remote
// worker's image that does not decode). The slot does not fail over —
// no panic, no failover counted — and stays down, redialing, as a
// connection whose restore fails does; with no registration it closes.
func TestFailoverRefusedSnapshotStaysDown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	r := newRouter(Config{Shards: 1, Remotes: []string{dead}, RedialBudget: 1, Window: 100})
	r.workers[1].snap = []byte("not a snapshot image")
	r.start()
	done := make(chan int64, 1)
	go func() { done <- r.Drain(nil) }()
	edges := testStream(200)
	for lo := 0; lo < len(edges); lo += 50 {
		r.IngestBatch(edges[lo : lo+50])
	}
	time.Sleep(300 * time.Millisecond) // several failed redials and refused adoptions
	if n := metricValue(t, r.Metrics().Snapshot(), "sg_failovers_total"); n != 0 {
		t.Fatalf("sg_failovers_total = %d after refused restores, want 0", n)
	}
	if !r.workers[1].unreachable.Load() {
		t.Fatal("the slot reads reachable though it never came up")
	}
	r.Close()
	<-done
}
