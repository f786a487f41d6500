package dshard

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"streamgraph/internal/core"
	"streamgraph/internal/query"
)

// handoverBodies returns the frame bodies of one migration's source
// half as a worker sees them: a migrate unregister (frame 6) and the
// snapshot frame that answers it, carrying a real handed-over state.
func handoverBodies(tb testing.TB) [][]byte {
	tb.Helper()
	s := NewSlot(core.NewMulti(core.MultiConfig{Window: 100}), false)
	err := s.Register(SlotRegister{
		Name: "q", Query: query.NewPath("ip", "GRE", "TCP"), Rank: 3,
		Config: core.Config{Strategy: core.StrategySingle, Leaves: [][]int{{0}, {1}}},
		Types:  []string{"GRE", "TCP"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	s.ProcessEdges(0, testEdges())
	_, state, err := s.HandOver(3, "q", false, nil, func(uint64, []core.NamedMatch) {})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	cn := NewConn(bufConn{&buf})
	cn.WriteUnregister(Unregister{Frame: 6, Name: "q", Seq: 3, Migrate: true})
	cn.WriteSnapshot(Snapshot{Frame: 6, Data: state})
	rd := NewConn(bufConn{bytes.NewBuffer(buf.Bytes())})
	var bodies [][]byte
	for range 2 {
		_, body, err := rd.ReadFrame()
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, append([]byte(nil), body...))
	}
	return bodies
}

// dialWorker serves one worker on loopback and returns a connection
// past the hello handshake.
func dialWorker(t *testing.T) *Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cn := NewConn(c)
	t.Cleanup(func() { cn.Close() })
	if err := cn.WriteHello(Hello{Version: ProtocolVersion, Window: 100}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := cn.ReadFrame(); err != nil || typ != FrameHelloAck {
		t.Fatalf("hello: frame 0x%02x, err %v", typ, err)
	}
	return cn
}

// readDone reads frames up to the done of frame id, returning the done
// and the payload of a snapshot frame tagged with the same id, if one
// came first.
func readDone(t *testing.T, cn *Conn, id uint64) (Done, []byte) {
	t.Helper()
	var snap []byte
	for {
		typ, body, err := cn.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", id, err)
		}
		switch typ {
		case FrameSnapshot:
			m, err := DecodeSnapshot(body)
			if err != nil || m.Frame != id {
				t.Fatalf("snapshot frame %d (err %v) while waiting for frame %d", m.Frame, err, id)
			}
			snap = append([]byte(nil), m.Data...)
		case FrameDone:
			d, err := DecodeDone(body)
			if err != nil || d.Frame != id {
				t.Fatalf("done of frame %d (err %v), want frame %d", d.Frame, err, id)
			}
			return d, snap
		}
	}
}

// TestServerHandOver drives a migration through one worker's host: a
// register whose state image is corrupt is refused with a done error
// and the connection stays up; a migrate unregister is answered with
// the query's state in a snapshot frame tagged with its frame id,
// before the done; and that state registers the query again.
func TestServerHandOver(t *testing.T) {
	cn := dialWorker(t)
	reg := Register{
		Frame: 1, Name: "q", Query: "e a b GRE\ne b c TCP", Strategy: int(core.StrategySingle),
		HasLeaves: true, Leaves: [][]int{{0}, {1}}, FilterTypes: []string{"GRE", "TCP"},
		State: []byte("not an engine image"),
	}
	if err := cn.WriteRegister(reg); err != nil {
		t.Fatal(err)
	}
	if d, _ := readDone(t, cn, 1); !strings.Contains(d.Err, "migrated state") || d.Report.Types != 0 {
		t.Fatalf("corrupt state: done error %q, filter width %d; want a refusal and no filter", d.Err, d.Report.Types)
	}

	reg.Frame, reg.State = 2, nil
	if err := cn.WriteRegister(reg); err != nil {
		t.Fatal(err)
	}
	if d, _ := readDone(t, cn, 2); d.Err != "" || d.Report.Types != 2 {
		t.Fatalf("register on the same connection: done error %q, filter width %d", d.Err, d.Report.Types)
	}
	if err := cn.WriteEdges(Edges{Frame: 3, BaseSeq: 0, Edges: testEdges()}); err != nil {
		t.Fatal(err)
	}
	readDone(t, cn, 3)

	if err := cn.WriteUnregister(Unregister{Frame: 4, Name: "q", Seq: 3, Migrate: true}); err != nil {
		t.Fatal(err)
	}
	d, state := readDone(t, cn, 4)
	if d.Err != "" || state == nil || d.Report.Types != 0 {
		t.Fatalf("migrate unregister: done error %q, %d state bytes, filter width %d", d.Err, len(state), d.Report.Types)
	}
	if err := cn.WriteUnregister(Unregister{Frame: 5, Name: "q", Seq: 3, Migrate: true}); err != nil {
		t.Fatal(err)
	}
	if d, again := readDone(t, cn, 5); d.Err == "" || again != nil {
		t.Fatalf("handover of a query no longer held: done error %q, %d state bytes", d.Err, len(again))
	}

	if err := cn.WriteRegister(Register{Frame: 6, Name: "q", Seq: 3, FilterTypes: []string{"GRE", "TCP"}, State: state}); err != nil {
		t.Fatal(err)
	}
	if d, _ := readDone(t, cn, 6); d.Err != "" || d.Report.Types != 2 {
		t.Fatalf("register from the state: done error %q, filter width %d", d.Err, d.Report.Types)
	}
}
