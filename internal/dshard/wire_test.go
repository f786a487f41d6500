package dshard

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"streamgraph/internal/stream"
)

// pipeEnd adapts one end of an in-memory pipe to the Conn interface.
type pipeEnd struct {
	io.Reader
	io.Writer
}

func (pipeEnd) Close() error { return nil }

// connPair returns two Conns wired to each other.
func connPair() (*Conn, *Conn) {
	ar, bw := io.Pipe()
	br, aw := io.Pipe()
	return NewConn(pipeEnd{Reader: ar, Writer: aw}), NewConn(pipeEnd{Reader: br, Writer: bw})
}

func testEdges() []stream.Edge {
	return []stream.Edge{
		{Src: "a", SrcLabel: "ip", Dst: "b", DstLabel: "host", Type: "TCP", TS: 42},
		{Src: "b", SrcLabel: "", Dst: "c", DstLabel: "ip", Type: "GRE", TS: -7},
		{Src: "漢字", SrcLabel: "λ", Dst: "", DstLabel: "x", Type: "UDP", TS: math.MaxInt64},
	}
}

// testReport is a done frame's slot report with every gauge distinct
// and some negative or past 32 bits, so a field written in the wrong
// slot or width cannot round-trip.
func testReport() Report {
	return Report{
		Live: 5, Stored: 9, Types: -1, Vertices: 7, VertexSlots: 11, Edges: 1 << 40, Partial: 13,
		TreeInserted: 17, TreeDeduped: 19, TreeEmitted: 23, TreeEvicted: 29, PoolGets: 31, PoolFresh: -37,
	}
}

// TestWireRoundTrip pushes every message type through a pipe and
// requires the decoded form to equal the original exactly.
func TestWireRoundTrip(t *testing.T) {
	client, server := connPair()

	msgs := []any{
		Hello{Version: ProtocolVersion, Slot: 3, Window: 1 << 40, UniversalFilter: true},
		Edges{Frame: 1, Suppress: true, BaseSeq: 1 << 33, Edges: testEdges()},
		Edges{Frame: 2, BaseSeq: 0, Edges: testEdges()[:1]},
		Register{
			Frame: 3, Suppress: true, Name: "q1", Seq: 99, Rank: 7,
			Query: "e a b TCP\ne b c GRE", Strategy: 1,
			HasLeaves: true, Leaves: [][]int{{0}, {1}},
			MaxMatches: 20000, MaxWork: -1, MaxSteps: 1 << 50,
			FilterUniversal: false, FilterTypes: []string{"GRE", "TCP"},
			Backfill: testEdges(),
		},
		Register{Frame: 4, Name: "q2", Query: "e a b *", Strategy: 4, FilterUniversal: true},
		BackfillChunk{Frame: 12, Name: "q1", Edges: testEdges()},
		BackfillChunk{Frame: 13, Name: "q2"},
		Unregister{Frame: 5, Name: "q1", Seq: 120, FilterUniversal: false, FilterTypes: []string{"TCP"}},
		Unregister{Frame: 6, Suppress: true, Name: "q2", Seq: 121, FilterUniversal: true},
		CloseStream{Frame: 7, FinalSeq: 1 << 62},
		Match{
			Frame: 8, Query: "q1", Rank: 2, Seq: 55, FirstTS: -3, LastTS: 90,
			Bindings: []Binding{{QueryVertex: "a", DataVertex: "n1"}, {QueryVertex: "b", DataVertex: "n2"}},
			Edges:    []MatchEdge{{QueryEdge: 1, Src: "n1", Dst: "n2", Type: "TCP", TS: 88}},
		},
		Match{Frame: 9, Query: "q2", Seq: 0},
		Done{Frame: 10, Err: "core: query \"q1\" already registered", Report: testReport()},
		Done{Frame: 11},
	}

	go func() {
		for _, m := range msgs {
			var err error
			switch m := m.(type) {
			case Hello:
				err = client.WriteHello(m)
			case Edges:
				err = client.WriteEdges(m)
			case Register:
				err = client.WriteRegister(m)
			case BackfillChunk:
				err = client.WriteBackfill(m)
			case Unregister:
				err = client.WriteUnregister(m)
			case CloseStream:
				err = client.WriteCloseStream(m)
			case Match:
				err = client.WriteMatch(m)
			case Done:
				err = client.WriteDone(m)
			}
			if err != nil {
				t.Errorf("write %T: %v", m, err)
				return
			}
		}
	}()

	for i, want := range msgs {
		typ, body, err := server.ReadFrame()
		if err != nil {
			t.Fatalf("msg %d: read: %v", i, err)
		}
		var got any
		switch typ {
		case FrameHello:
			got, err = DecodeHello(body)
		case FrameEdges:
			got, err = server.DecodeEdges(body)
		case FrameRegister:
			// A frame from a router that still sent a search-pool size
			// (the uvarint behind MaxSteps, now written as 0) decodes the
			// same.
			if marker := binary.AppendVarint(nil, 1<<50); bytes.Count(body, marker) == 1 {
				at := bytes.Index(body, marker) + len(marker)
				if body[at] != 0 {
					t.Fatalf("msg %d: pool-size slot written as %d, want 0", i, body[at])
				}
				body[at] = 4
			}
			got, err = server.DecodeRegister(body)
		case FrameBackfill:
			got, err = server.DecodeBackfill(body)
		case FrameUnregister:
			got, err = server.DecodeUnregister(body)
		case FrameClose:
			got, err = DecodeCloseStream(body)
		case FrameMatch:
			got, err = server.DecodeMatch(body)
		case FrameDone:
			got, err = DecodeDone(body)
		default:
			t.Fatalf("msg %d: unknown frame type 0x%02x", i, typ)
		}
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("msg %d round-trip mismatch:\n got %#v\nwant %#v", i, got, want)
		}
	}
}

// TestDecodeCorrupt requires every decoder to reject truncated bodies
// with an error instead of panicking or fabricating values.
func TestDecodeCorrupt(t *testing.T) {
	client, server := connPair()
	go client.WriteRegister(Register{
		Frame: 1, Name: "q", Query: "e a b TCP", Strategy: 1,
		HasLeaves: true, Leaves: [][]int{{0}},
		FilterTypes: []string{"TCP"}, Backfill: testEdges(),
	})
	_, body, err := server.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := decodeRegister(body[:cut], &strTable{}); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(body))
		}
	}
	// A done frame with an error string and a full slot report: every
	// cut, the last gauge's included, must error.
	doneClient, doneServer := connPair()
	go doneClient.WriteDone(Done{Frame: 2, Err: "boom", Report: testReport()})
	if _, body, err = doneServer.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDone(body); err != nil {
		t.Fatalf("intact done: %v", err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeDone(body[:cut]); err == nil {
			t.Fatalf("done truncation at %d/%d decoded without error", cut, len(body))
		}
	}
	// The snapshot frame that answers a migrate unregister: every cut of
	// its state image must error too.
	handover := handoverBodies(t)[1]
	if m, err := DecodeSnapshot(handover); err != nil || m.Frame != 6 || len(m.Data) == 0 {
		t.Fatalf("intact handover snapshot: frame %d, %d bytes, err %v", m.Frame, len(m.Data), err)
	}
	for cut := 0; cut < len(handover); cut++ {
		if _, err := DecodeSnapshot(handover[:cut]); err == nil {
			t.Fatalf("handover snapshot truncation at %d/%d decoded without error", cut, len(handover))
		}
	}
	// A hostile count prefix must not drive a huge allocation — even
	// one that fits the remaining byte count but not the element type's
	// minimum encoded size (an edge cannot encode in under 6 bytes, so
	// a 1000-edge claim needs ≥ 6000 trailing bytes, not 1000).
	if _, err := decodeEdges([]byte{1, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}, &strTable{}); err == nil {
		t.Fatal("absurd edge count decoded without error")
	}
	plausible := append([]byte{1, 0, 1, 0xe8, 0x07}, make([]byte, 1000)...)
	if _, err := decodeEdges(plausible, &strTable{}); err == nil {
		t.Fatal("edge count exceeding remaining/minEdgeSize decoded without error")
	}
	// A count of 2^63 must not wrap the bounds arithmetic into a
	// negative make() length (frame: id=1, suppress=0, base=1, then the
	// 10-byte uvarint for 1<<63).
	overflow := append([]byte{1, 0, 1}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	overflow = append(overflow, make([]byte, 64)...)
	if _, err := decodeEdges(overflow, &strTable{}); err == nil {
		t.Fatal("2^63 edge count decoded without error")
	}
	// A length header with bit 31 set — how a protocol-5 peer marked a
	// compressed frame — exceeds MaxFrame and is refused before any
	// buffer is sized for it.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31|16)
	r := NewConn(bufConn{bytes.NewBuffer(append(hdr[:], make([]byte, 16)...))})
	if _, _, err := r.ReadFrame(); err == nil || !strings.Contains(err.Error(), "bad frame length") {
		t.Fatalf("frame length with bit 31 set: err %v, want a bad frame length", err)
	}
	if cap(r.rbuf) != 0 {
		t.Fatalf("refused frame sized a %d-byte read buffer", cap(r.rbuf))
	}
}

// writeCounter is a transport that counts the writes reaching it.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func (*writeCounter) Close() error { return nil }

// TestReplyFlushesOnce pins that a worker's reply leaves in one write:
// its matches only queue their frames, and the done that ends the
// reply flushes them with it, in order.
func TestReplyFlushesOnce(t *testing.T) {
	const matches = 20
	var w writeCounter
	cn := NewConn(&w)
	for i := 0; i < matches; i++ {
		if err := cn.WriteMatch(Match{
			Frame: 1, Query: "q", Seq: uint64(i),
			Bindings: []Binding{{QueryVertex: "a", DataVertex: "x"}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if w.writes != 0 {
		t.Fatalf("%d writes before the done, want 0", w.writes)
	}
	if err := cn.WriteDone(Done{Frame: 1}); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("%d matches and their done took %d writes, want 1", matches, w.writes)
	}
	rd := NewConn(bufConn{&w.Buffer})
	for i := 0; i <= matches; i++ {
		typ, body, err := rd.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i == matches {
			if typ != FrameDone {
				t.Fatalf("frame %d: type 0x%02x, want the done", i, typ)
			}
			break
		}
		m, err := rd.DecodeMatch(body)
		if typ != FrameMatch || err != nil || m.Seq != uint64(i) {
			t.Fatalf("frame %d: type 0x%02x seq %d err %v, want match %d", i, typ, m.Seq, err, i)
		}
	}
}
