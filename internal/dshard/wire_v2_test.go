package dshard

// Frame encoding coverage: the dictionary/delta encoding must
// round-trip every message exactly, shrink repeated traffic, reject
// every malformed dictionary payload with an error (never a panic or an
// unbounded allocation), and refuse a peer of any other version.

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"streamgraph/internal/stream"
)

// bufConn adapts a byte buffer to the Conn interface so tests can
// capture and replay the exact wire bytes.
type bufConn struct{ *bytes.Buffer }

func (bufConn) Close() error { return nil }

// TestWireV2RoundTrip replays the dictionary-bearing messages of
// TestWireRoundTrip, every message twice: the first pass populates the
// dictionaries (definitions), the second exercises pure references, and
// both must decode to the originals exactly.
func TestWireV2RoundTrip(t *testing.T) {
	client, server := connPair()

	base := []any{
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
		BackfillChunk{Frame: 12, Name: "q1", Edges: testEdges()},
		Unregister{Frame: 5, Name: "q1", Seq: 120, FilterUniversal: false, FilterTypes: []string{"TCP"}},
		Match{
			Frame: 8, Query: "q1", Rank: 2, Seq: 55, FirstTS: -3, LastTS: 90,
			Bindings: []Binding{{QueryVertex: "a", DataVertex: "n1"}, {QueryVertex: "b", DataVertex: "n2"}},
			Edges:    []MatchEdge{{QueryEdge: 1, Src: "n1", Dst: "n2", Type: "TCP", TS: 88}, {QueryEdge: 0, Src: "n2", Dst: "n1", Type: "GRE", TS: -4}},
		},
	}
	msgs := append(append([]any{}, base...), base...) // second pass: references only

	go func() {
		for _, m := range msgs {
			var err error
			switch m := m.(type) {
			case Edges:
				err = client.WriteEdges(m)
			case Register:
				err = client.WriteRegister(m)
			case BackfillChunk:
				err = client.WriteBackfill(m)
			case Unregister:
				err = client.WriteUnregister(m)
			case Match:
				err = client.WriteMatch(m)
			}
			if err != nil {
				t.Errorf("write %T: %v", m, err)
				return
			}
		}
		// The stream ends on a match, which only queues its frame.
		if err := client.bw.Flush(); err != nil {
			t.Errorf("flush: %v", err)
		}
	}()

	for i, want := range msgs {
		typ, body, err := server.ReadFrame()
		if err != nil {
			t.Fatalf("msg %d: read: %v", i, err)
		}
		var got any
		switch typ {
		case FrameEdges:
			got, err = server.DecodeEdges(body)
		case FrameRegister:
			got, err = server.DecodeRegister(body)
		case FrameBackfill:
			got, err = server.DecodeBackfill(body)
		case FrameUnregister:
			got, err = server.DecodeUnregister(body)
		case FrameMatch:
			got, err = server.DecodeMatch(body)
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
	if st := server.Stats(); st.DictEntriesIn == 0 || st.DictBytesIn == 0 {
		t.Fatalf("decode dictionary never populated: %+v", server.Stats())
	}
	if st := client.Stats(); st.DictEntriesOut == 0 {
		t.Fatalf("encode dictionary never populated: %+v", st)
	}
}

// TestWireV2DictionaryShrinksRepeats pins the point of the dictionary:
// re-sending the same edge batch must cost materially fewer wire bytes
// than its first transmission, and the first frame must already be
// smaller than the plain edge-list encoding of the same batch.
func TestWireV2DictionaryShrinksRepeats(t *testing.T) {
	edges := Edges{Frame: 1, BaseSeq: 100}
	for i := 0; i < 32; i++ {
		edges.Edges = append(edges.Edges, stream.Edge{
			Src: fmt.Sprintf("host-%d", i%8), SrcLabel: "ip",
			Dst: fmt.Sprintf("host-%d", (i+1)%8), DstLabel: "ip",
			Type: "TCP", TS: int64(1000 + i),
		})
	}
	frameBytes := func(cn *Conn) func() int64 {
		last := int64(0)
		return func() int64 {
			st := cn.Stats()
			d := st.BytesOut - last
			last = st.BytesOut
			return d
		}
	}

	plainSize := int64(len(AppendEdgeList(nil, edges.Edges)))

	cn := NewConn(bufConn{&bytes.Buffer{}})
	take := frameBytes(cn)
	if err := cn.WriteEdges(edges); err != nil {
		t.Fatal(err)
	}
	first := take()
	if err := cn.WriteEdges(edges); err != nil {
		t.Fatal(err)
	}
	second := take()
	if first >= plainSize {
		t.Fatalf("first frame (%dB) not smaller than the plain edge list (%dB)", first, plainSize)
	}
	if second >= first {
		t.Fatalf("reference-only frame (%dB) not smaller than the defining frame (%dB)", second, first)
	}
	if second*3 > plainSize {
		t.Fatalf("steady-state frame (%dB) not under a third of the plain edge list (%dB)", second, plainSize)
	}
}

// TestDecodeCorruptV2 sweeps truncations and dictionary protocol
// violations through the frame decoders: every cut and every malformed
// table operation must error, never panic.
func TestDecodeCorruptV2(t *testing.T) {
	// Encode a register and a match on a connection, loop the bytes
	// back, and truncate the bodies at every position with a fresh
	// decode table each time.
	var buf bytes.Buffer
	cn := NewConn(bufConn{&buf})
	if err := cn.WriteRegister(Register{
		Frame: 1, Name: "q", Query: "e a b TCP", Strategy: 1,
		HasLeaves: true, Leaves: [][]int{{0}},
		FilterTypes: []string{"TCP"}, Backfill: testEdges(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cn.WriteMatch(Match{
		Frame: 2, Query: "q", Seq: 9, FirstTS: 1, LastTS: 5,
		Bindings: []Binding{{QueryVertex: "a", DataVertex: "x"}},
		Edges:    []MatchEdge{{QueryEdge: 0, Src: "x", Dst: "y", Type: "TCP", TS: 3}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := cn.bw.Flush(); err != nil { // a match only queues its frame
		t.Fatal(err)
	}
	rd := NewConn(bufConn{bytes.NewBuffer(buf.Bytes())})
	_, regBody, err := rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	regBody = append([]byte(nil), regBody...)
	_, matchBody, err := rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(regBody); cut++ {
		if _, err := decodeRegister(regBody[:cut], &strTable{}); err == nil {
			t.Fatalf("register truncation at %d/%d decoded without error", cut, len(regBody))
		}
	}
	// The match body references strings its own frame never defines
	// (they were defined by the register frame), so decoding it against
	// an empty table must error too — on a fresh connection those
	// references are unknown ids.
	if _, err := decodeMatch(matchBody, &strTable{}); err == nil {
		t.Fatal("cross-frame dictionary references decoded against an empty table")
	}

	// Dictionary protocol violations, byte-crafted: frame bodies are a
	// BackfillChunk header (frame uvarint, then the name string).
	chunk := func(nameEnc ...byte) []byte {
		return append([]byte{1}, nameEnc...)
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"unknown reference", chunk(5)},                                            // ref id 3 on an empty table
		{"gapped definition", chunk(1, 1, 1, 'a')},                                 // first definition claims id 1
		{"overflow definition id", chunk(1, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'a')}, // id far past maxDictEntries
		{"truncated definition", chunk(1, 0)},                                      // id 0 but no string
		{"truncated inline", chunk(0, 5, 'a')},                                     // inline length 5, one byte
	}
	for _, tc := range cases {
		if _, err := decodeBackfill(tc.body, &strTable{}); err == nil {
			t.Fatalf("%s decoded without error", tc.name)
		}
	}
	// A duplicate definition: id 0 defined twice (second define arrives
	// in the edge list of the same frame).
	dup := chunk(1, 0, 1, 'n')       // frame=1, name defines id 0
	dup = append(dup, 1)             // one edge
	dup = append(dup, 1, 0, 1, 'm')  // edge.Src re-defines id 0
	dup = append(dup, 2, 2, 2, 2, 0) // rest of the edge
	if _, err := decodeBackfill(dup, &strTable{}); err == nil {
		t.Fatal("duplicate dictionary definition decoded without error")
	}
}

// TestServerVersionNegotiation drives the hello handshake: the server
// acks a hello of ProtocolVersion with its own version, and refuses a
// v1 hello (no handshake existed then), a v2 hello (which carried an
// eviction cadence), a v3 hello (whose done frames carried three
// replica gauges, not a slot Report), a v4 hello (whose worker answers
// a migrate unregister without the query's state), a v5 hello (which
// negotiated the encoding and could compress frames) and an unknown
// version alike, each with the version error and without a byte of
// traffic.
func TestServerVersionNegotiation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	logged := make(chan string, 1) // one line per refused connection, read before the next dial
	srv.Logf = func(format string, args ...any) { logged <- fmt.Sprintf(format, args...) }
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	// A current hello → hello-ack.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cn := NewConn(c)
	if err := cn.WriteHello(Hello{Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	typ, body, err := cn.ReadFrame()
	if err != nil || typ != FrameHelloAck {
		t.Fatalf("v%d hello: got type 0x%02x err %v, want hello-ack", ProtocolVersion, typ, err)
	}
	ack, err := DecodeHelloAck(body)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Version != ProtocolVersion {
		t.Fatalf("hello-ack of version %d, want %d", ack.Version, ProtocolVersion)
	}
	if err := cn.WriteCloseStream(CloseStream{Frame: 1}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := cn.ReadFrame(); err != nil || typ != FrameDone {
		t.Fatalf("v%d stream: got type 0x%02x err %v, want done", ProtocolVersion, typ, err)
	}
	cn.Close()

	for _, version := range []uint64{1, 2, 3, 4, 5, 99} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		cn := NewConn(c)
		if err := cn.WriteHello(Hello{Version: version}); err != nil {
			t.Fatal(err)
		}
		// A v1 client sent its stream right behind the hello, expecting
		// no ack; none of it may be serviced.
		if err := cn.WriteCloseStream(CloseStream{Frame: 1}); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := cn.ReadFrame(); err == nil {
			t.Fatalf("hello of version %d was answered with frame 0x%02x", version, typ)
		}
		cn.Close()
		want := fmt.Sprintf("protocol version %d, want %d", version, ProtocolVersion)
		if line := <-logged; !strings.Contains(line, want) {
			t.Fatalf("hello of version %d refused with %q, want the version error %q", version, line, want)
		}
	}
}

// frameBody writes one frame on a fresh connection and returns its
// body as a peer's ReadFrame sees it: a dictionary-encoded frame that
// decodes in full against a fresh table.
func frameBody(tb testing.TB, write func(*Conn) error) []byte {
	tb.Helper()
	var buf bytes.Buffer
	cn := NewConn(bufConn{&buf})
	if err := write(cn); err != nil {
		tb.Fatal(err)
	}
	if err := cn.bw.Flush(); err != nil { // a match only queues its frame
		tb.Fatal(err)
	}
	_, body, err := NewConn(bufConn{&buf}).ReadFrame()
	if err != nil {
		tb.Fatal(err)
	}
	return append([]byte(nil), body...)
}

// FuzzDecodeFrame throws arbitrary bodies at every frame decoder with a
// fresh dictionary table: no input may panic, and the table a hostile
// body builds must stay bounded by the body that built it.
func FuzzDecodeFrame(f *testing.F) {
	// Valid dictionary-encoded bodies, each paired with its own decoder,
	// seed the corpus alongside hand-crafted dictionary violations.
	const (
		edges = iota
		register
		backfill
		unregister
		match
		snapshot
		decoders
	)
	f.Add(byte(edges), frameBody(f, func(cn *Conn) error {
		return cn.WriteEdges(Edges{Frame: 1, BaseSeq: 5, Edges: testEdges()})
	}))
	f.Add(byte(register), frameBody(f, func(cn *Conn) error {
		return cn.WriteRegister(Register{Frame: 2, Name: "q", Query: "e a b TCP", FilterTypes: []string{"TCP"}, Backfill: testEdges()})
	}))
	f.Add(byte(backfill), frameBody(f, func(cn *Conn) error {
		return cn.WriteBackfill(BackfillChunk{Frame: 3, Name: "q", Edges: testEdges()})
	}))
	f.Add(byte(unregister), frameBody(f, func(cn *Conn) error {
		return cn.WriteUnregister(Unregister{Frame: 4, Name: "q", Seq: 9, FilterTypes: []string{"GRE", "TCP"}})
	}))
	f.Add(byte(match), frameBody(f, func(cn *Conn) error {
		return cn.WriteMatch(Match{Frame: 5, Query: "q", Bindings: []Binding{{QueryVertex: "a", DataVertex: "x"}}, Edges: []MatchEdge{{Src: "x", Dst: "y", Type: "TCP", TS: 9}}})
	}))
	// A match whose names repeat within the frame: definitions, then
	// references to them.
	f.Add(byte(match), frameBody(f, func(cn *Conn) error {
		return cn.WriteMatch(Match{
			Frame: 6, Query: "q", Rank: 1, Seq: 40, FirstTS: 7, LastTS: 9,
			Bindings: []Binding{{QueryVertex: "a", DataVertex: "x"}, {QueryVertex: "b", DataVertex: "y"}},
			Edges:    []MatchEdge{{QueryEdge: 0, Src: "x", Dst: "y", Type: "TCP", TS: 7}, {QueryEdge: 1, Src: "y", Dst: "x", Type: "TCP", TS: 9}},
		})
	}))
	// A migrate unregister and the snapshot frame that answers it.
	handover := handoverBodies(f)
	f.Add(byte(unregister), handover[0])
	f.Add(byte(snapshot), handover[1])
	f.Add(byte(edges), []byte{1, 0, 1, 1, 5})                         // unknown reference
	f.Add(byte(backfill), []byte{1, 1, 1, 1, 'a'})                    // gapped definition
	f.Add(byte(backfill), []byte{1, 1, 0, 1, 'a', 1, 1, 0, 1, 'b'})   // duplicate definition
	f.Add(byte(edges), []byte{1, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}) // absurd edge count

	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		tbl := &strTable{}
		switch which % decoders {
		case edges:
			decodeEdges(body, tbl)
		case register:
			decodeRegister(body, tbl)
		case backfill:
			decodeBackfill(body, tbl)
		case unregister:
			decodeUnregister(body, tbl)
		case match:
			decodeMatch(body, tbl)
		case snapshot:
			DecodeSnapshot(body)
		}
		// Each table entry costs at least three body bytes (tag, id,
		// length); anything bigger means the decoder over-allocated.
		if len(tbl.vals) > len(body) {
			t.Fatalf("table grew to %d entries from a %d-byte body", len(tbl.vals), len(body))
		}
		// The table-free decoders must hold on the same input.
		DecodeEdgeList(body)
		DecodeHello(body)
		DecodeHelloAck(body)
		DecodeDone(body)
		DecodeCloseStream(body)
		DecodeCheckpoint(body)
		DecodeRestore(body)
	})
}
