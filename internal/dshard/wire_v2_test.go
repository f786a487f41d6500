package dshard

// Protocol v2 coverage: the negotiated dictionary/delta/compression
// encoding must round-trip every message exactly, shrink repeated
// traffic, reject every malformed dictionary or compressed payload
// with an error (never a panic or an unbounded allocation), and refuse
// a peer of any other version.

import (
	"bytes"
	"encoding/binary"
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

// negotiatedPair returns two Conns wired to each other with the given
// capability set applied to both ends.
func negotiatedPair(caps uint64) (*Conn, *Conn) {
	a, b := connPair()
	a.Negotiate(caps)
	b.Negotiate(caps)
	return a, b
}

// TestWireV2RoundTrip replays the full message matrix of
// TestWireRoundTrip over a dictionary connection, every message twice:
// the first pass populates the dictionaries (definitions), the second
// exercises pure references, and both must decode to the originals
// exactly.
func TestWireV2RoundTrip(t *testing.T) {
	client, server := negotiatedPair(CapDict | CapCompress)

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
// than its first transmission, and a v2 frame must already be smaller
// than the v1 encoding of the same batch.
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

	v1 := NewConn(bufConn{&bytes.Buffer{}})
	if err := v1.WriteEdges(edges); err != nil {
		t.Fatal(err)
	}
	v1Size := v1.Stats().BytesOut

	cn := NewConn(bufConn{&bytes.Buffer{}})
	cn.Negotiate(CapDict)
	take := frameBytes(cn)
	if err := cn.WriteEdges(edges); err != nil {
		t.Fatal(err)
	}
	first := take()
	if err := cn.WriteEdges(edges); err != nil {
		t.Fatal(err)
	}
	second := take()
	if first >= v1Size {
		t.Fatalf("first v2 frame (%dB) not smaller than v1 (%dB)", first, v1Size)
	}
	if second >= first {
		t.Fatalf("reference-only frame (%dB) not smaller than the defining frame (%dB)", second, first)
	}
	if second*3 > v1Size {
		t.Fatalf("steady-state v2 frame (%dB) not under a third of v1 (%dB)", second, v1Size)
	}
}

// TestWireV2Compression checks that large frames are flate-compressed
// on a CapCompress connection (raw vs wire accounting diverges), that
// the peer reads them back exactly, and that tiny frames skip the
// compressor.
func TestWireV2Compression(t *testing.T) {
	var buf bytes.Buffer
	w := NewConn(bufConn{&buf})
	w.Negotiate(CapCompress)
	big := Edges{Frame: 1, BaseSeq: 7}
	for i := 0; i < 200; i++ {
		big.Edges = append(big.Edges, stream.Edge{
			Src: "host-a", SrcLabel: "ip", Dst: "host-b", DstLabel: "ip",
			Type: "TCP", TS: int64(i),
		})
	}
	if err := w.WriteEdges(big); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.BytesOut >= st.RawBytesOut {
		t.Fatalf("large repetitive frame not compressed: wire %dB raw %dB", st.BytesOut, st.RawBytesOut)
	}

	r := NewConn(bufConn{bytes.NewBuffer(buf.Bytes())})
	r.Negotiate(CapCompress)
	typ, body, err := r.ReadFrame()
	if err != nil || typ != FrameEdges {
		t.Fatalf("read compressed frame: type 0x%02x err %v", typ, err)
	}
	got, err := r.DecodeEdges(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, big) {
		t.Fatal("compressed round-trip mismatch")
	}
	rst := r.Stats()
	if rst.BytesIn != st.BytesOut || rst.RawBytesIn != st.RawBytesOut {
		t.Fatalf("read accounting diverges from write: %+v vs %+v", rst, st)
	}

	// A frame under the threshold goes out as-is.
	w2 := NewConn(bufConn{&bytes.Buffer{}})
	w2.Negotiate(CapCompress)
	if err := w2.WriteDone(Done{Frame: 9}); err != nil {
		t.Fatal(err)
	}
	if st := w2.Stats(); st.BytesOut != st.RawBytesOut {
		t.Fatalf("tiny frame was compressed: %+v", st)
	}
}

// TestDecodeCorruptV2 sweeps truncations and dictionary protocol
// violations through the v2 decoders: every cut and every malformed
// table operation must error, never panic.
func TestDecodeCorruptV2(t *testing.T) {
	// Encode a register and a match on a dictionary connection, loop
	// the bytes back, and truncate the bodies at every position with a
	// fresh decode table each time.
	var buf bytes.Buffer
	cn := NewConn(bufConn{&buf})
	cn.Negotiate(CapDict)
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
	rd := NewConn(bufConn{bytes.NewBuffer(buf.Bytes())})
	rd.Negotiate(CapDict)
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

// TestCompressedFrameCorruption covers the compressed-frame failure
// modes: a compressed frame on an un-negotiated connection, every
// stream truncation, and a compressed payload with its tail cut off
// under an intact header.
func TestCompressedFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewConn(bufConn{&buf})
	w.Negotiate(CapCompress)
	big := Edges{Frame: 1}
	for i := 0; i < 300; i++ {
		big.Edges = append(big.Edges, stream.Edge{Src: "aaaa", Dst: "bbbb", Type: "TCP", TS: int64(i)})
	}
	if err := w.WriteEdges(big); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	if binary.BigEndian.Uint32(data)&frameCompressed == 0 {
		t.Fatal("test frame did not compress")
	}

	// Without negotiation the compressed bit is a protocol error.
	plain := NewConn(bufConn{bytes.NewBuffer(data)})
	if _, _, err := plain.ReadFrame(); err == nil {
		t.Fatal("compressed frame accepted without negotiated compression")
	}

	// Any truncation of the stream must surface as a read error.
	for cut := 0; cut < len(data); cut += 7 {
		r := NewConn(bufConn{bytes.NewBuffer(data[:cut])})
		r.Negotiate(CapCompress)
		if _, _, err := r.ReadFrame(); err == nil {
			t.Fatalf("truncation at %d/%d read without error", cut, len(data))
		}
	}

	// An intact header over a flate stream missing its final block:
	// re-frame the compressed payload minus its last byte.
	payload := data[4:]
	short := payload[:len(payload)-1]
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(short))|frameCompressed)
	r := NewConn(bufConn{bytes.NewBuffer(append(hdr[:], short...))})
	r.Negotiate(CapCompress)
	if _, _, err := r.ReadFrame(); err == nil {
		t.Fatal("truncated flate stream read without error")
	}
}

// TestServerVersionNegotiation drives the hello handshake: the server
// acks a hello of ProtocolVersion with the capabilities it knows, and
// refuses a v1 hello (no handshake existed then), a v2 hello (which
// carried an eviction cadence), a v3 hello (whose done frames carried
// three replica gauges, not a slot Report) and an unknown version
// alike, each with the version error and without a byte of traffic.
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

	// A current hello → hello-ack with the granted subset.
	cn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cn.WriteHello(Hello{Version: ProtocolVersion, Caps: CapDict | CapCompress | 1<<60}); err != nil {
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
	if ack.Caps != CapDict|CapCompress {
		t.Fatalf("granted caps %b, want the known subset %b", ack.Caps, CapDict|CapCompress)
	}
	if err := cn.WriteCloseStream(CloseStream{Frame: 1}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := cn.ReadFrame(); err != nil || typ != FrameDone {
		t.Fatalf("v%d stream: got type 0x%02x err %v, want done", ProtocolVersion, typ, err)
	}
	cn.Close()

	for _, version := range []uint64{1, 2, 3, 99} {
		cn, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
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

// FuzzDecodeFrame throws arbitrary bodies at every v2 decoder with a
// fresh dictionary table: no input may panic, and the table a hostile
// body builds must stay bounded by the body that built it.
func FuzzDecodeFrame(f *testing.F) {
	// Valid bodies (captured from a dictionary connection) seed the
	// corpus alongside hand-crafted dictionary violations.
	var buf bytes.Buffer
	cn := NewConn(bufConn{&buf})
	cn.Negotiate(CapDict)
	cn.WriteEdges(Edges{Frame: 1, BaseSeq: 5, Edges: testEdges()})
	cn.WriteRegister(Register{Frame: 2, Name: "q", Query: "e a b TCP", FilterTypes: []string{"TCP"}, Backfill: testEdges()})
	cn.WriteMatch(Match{Frame: 3, Query: "q", Bindings: []Binding{{QueryVertex: "a", DataVertex: "x"}}, Edges: []MatchEdge{{Src: "x", Dst: "y", Type: "TCP", TS: 9}}})
	cn.WriteDone(Done{Frame: 4, Report: testReport()})
	cn.WriteDone(Done{Frame: 5, Err: "core: query \"q\" already registered", Report: Report{Types: -1}})
	rd := NewConn(bufConn{bytes.NewBuffer(buf.Bytes())})
	for i := byte(0); ; i++ {
		_, body, err := rd.ReadFrame()
		if err != nil {
			break
		}
		f.Add(i, append([]byte(nil), body...))
	}
	f.Add(byte(0), []byte{1, 0, 1, 5})                       // unknown reference
	f.Add(byte(2), []byte{1, 1, 1, 1, 'a'})                  // gapped definition
	f.Add(byte(2), []byte{1, 1, 0, 1, 'a', 1, 1, 0, 1, 'b'}) // duplicate definition
	f.Add(byte(4), []byte{1, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		tbl := &strTable{}
		switch which % 5 {
		case 0:
			decodeEdges(body, tbl)
		case 1:
			decodeRegister(body, tbl)
		case 2:
			decodeBackfill(body, tbl)
		case 3:
			decodeUnregister(body, tbl)
		case 4:
			decodeMatch(body, tbl)
		}
		// Each table entry costs at least three body bytes (tag, id,
		// length); anything bigger means the decoder over-allocated.
		if len(tbl.vals) > len(body) {
			t.Fatalf("table grew to %d entries from a %d-byte body", len(tbl.vals), len(body))
		}
		// The plain decoders must hold on the same input.
		decodeEdges(body, nil)
		decodeRegister(body, nil)
		decodeBackfill(body, nil)
		decodeUnregister(body, nil)
		decodeMatch(body, nil)
		DecodeHello(body)
		DecodeHelloAck(body)
		DecodeDone(body)
		DecodeCloseStream(body)
	})
}
