package dshard

// Frame and payload codecs. A frame is a 4-byte big-endian payload
// length followed by the payload; payload[0] is the frame type byte.
// Integers are varints (unsigned for seqs/counts, zigzag for
// timestamps), strings are uvarint-length-prefixed bytes. Encoding is
// append-style into a reused scratch buffer, so the steady-state hot
// path (edge batches, match streams) performs no per-frame
// allocations beyond the strings themselves on decode.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"

	"streamgraph/internal/stream"
)

// Conn wraps one protocol connection: buffered frame IO over a
// net.Conn (or any ReadWriteCloser). It is not safe for concurrent
// writers or concurrent readers; the protocol's single-writer /
// single-reader split (one goroutine sending, one receiving) is the
// intended use.
type Conn struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader
	bw  *bufio.Writer

	// Write-side and read-side scratch are separate: the intended use
	// runs one sending and one receiving goroutine per connection, and
	// they must never share a buffer.
	wbuf []byte
	whdr [4]byte
	rbuf []byte
	rhdr [4]byte

	// Wire accounting, maintained by the frame layer itself so every
	// protocol user gets it for free. Atomics: written by the
	// single-writer/single-reader pair, read by metrics scrapes on
	// arbitrary goroutines. bytes* count what actually crossed the
	// wire; rawBytes* count the logical (uncompressed) payloads, so
	// rawBytes/bytes is the compression ratio.
	bytesIn, bytesOut       atomic.Int64
	rawBytesIn, rawBytesOut atomic.Int64
	framesIn, framesOut     atomic.Int64

	// Negotiated state (Negotiate): the per-direction string
	// dictionaries and the flate codec scratch. All nil/false when
	// nothing was granted. dict and the write-side flate state belong to the
	// writer goroutine, tbl and the read-side state to the reader.
	caps     uint64
	dict     *strDict  // encode side (our outgoing frames)
	tbl      *strTable // decode side (the peer's incoming frames)
	compress bool
	fw       *flate.Writer
	cw       appendWriter // fw's sink: the compressed-frame scratch
	cbuf     []byte       // read side: raw compressed payload scratch
	fr       io.ReadCloser
	frSrc    bytes.Reader
}

// appendWriter is a minimal io.Writer appending into a reusable byte
// slice, the flate writer's sink (bytes.Buffer would re-allocate its
// window on every Reset).
type appendWriter struct{ b []byte }

// Write appends p.
func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// ConnStats is a point-in-time snapshot of one connection's wire
// accounting. Byte counts include the 4-byte frame headers.
type ConnStats struct {
	// BytesIn and FramesIn count received frames; BytesOut and
	// FramesOut count sent frames. Byte counts are post-compression —
	// what actually crossed the wire.
	BytesIn, BytesOut   int64
	FramesIn, FramesOut int64
	// RawBytesIn and RawBytesOut count the same frames before
	// compression (identical to BytesIn/BytesOut on a connection
	// without CapCompress); Bytes/RawBytes is the compression ratio.
	RawBytesIn, RawBytesOut int64
	// DictEntriesOut/DictBytesOut size the encode-side string
	// dictionary (entries interned, string bytes held);
	// DictEntriesIn/DictBytesIn the decode side. Zero without CapDict.
	DictEntriesOut, DictBytesOut int64
	DictEntriesIn, DictBytesIn   int64
}

// Stats snapshots the connection's cumulative wire counters. Safe to
// call from any goroutine at any time.
func (cn *Conn) Stats() ConnStats {
	st := ConnStats{
		BytesIn:     cn.bytesIn.Load(),
		BytesOut:    cn.bytesOut.Load(),
		FramesIn:    cn.framesIn.Load(),
		FramesOut:   cn.framesOut.Load(),
		RawBytesIn:  cn.rawBytesIn.Load(),
		RawBytesOut: cn.rawBytesOut.Load(),
	}
	if cn.dict != nil {
		st.DictEntriesOut = cn.dict.entries.Load()
		st.DictBytesOut = cn.dict.bytes.Load()
	}
	if cn.tbl != nil {
		st.DictEntriesIn = cn.tbl.entries.Load()
		st.DictBytesIn = cn.tbl.bytes.Load()
	}
	return st
}

// Negotiate applies a granted capability set to the connection, in
// both directions. Call it exactly once, after the hello/hello-ack
// exchange and before any other frame is written or read: the
// handshake frames themselves always use the plain encoding.
func (cn *Conn) Negotiate(caps uint64) {
	cn.caps = caps
	if caps&CapDict != 0 {
		cn.dict = newStrDict()
		cn.tbl = &strTable{}
	}
	cn.compress = caps&CapCompress != 0
}

// NewConn wraps an established connection.
func NewConn(rwc io.ReadWriteCloser) *Conn {
	return &Conn{
		rwc: rwc,
		br:  bufio.NewReaderSize(rwc, 64<<10),
		bw:  bufio.NewWriterSize(rwc, 64<<10),
	}
}

// Dial connects to a remote shard worker.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// Close closes the underlying connection.
func (cn *Conn) Close() error { return cn.rwc.Close() }

// frameCompressed marks a compressed frame in the 4-byte length
// header. MaxFrame is far below 2^31, so the bit is always free; a
// peer decoding a compressed header it did not negotiate fails cleanly
// (compressed frames are only ever sent after CapCompress is
// negotiated).
const frameCompressed = 1 << 31

// compressThreshold is the minimum payload size worth deflating; tiny
// control and ack frames are sent as-is.
const compressThreshold = 512

// writeFrame sends one framed payload and flushes. On a CapCompress
// connection, payloads at or above compressThreshold are flate-
// compressed when that actually shrinks them.
func (cn *Conn) writeFrame(payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("dshard: frame of %d bytes exceeds MaxFrame", len(payload))
	}
	body, hdr := payload, uint32(len(payload))
	if cn.compress && len(payload) >= compressThreshold {
		if c, err := cn.deflate(payload); err == nil && len(c) < len(payload) {
			body, hdr = c, uint32(len(c))|frameCompressed
		}
	}
	binary.BigEndian.PutUint32(cn.whdr[:], hdr)
	if _, err := cn.bw.Write(cn.whdr[:]); err != nil {
		return err
	}
	if _, err := cn.bw.Write(body); err != nil {
		return err
	}
	if err := cn.bw.Flush(); err != nil {
		return err
	}
	cn.bytesOut.Add(int64(len(body)) + 4)
	cn.rawBytesOut.Add(int64(len(payload)) + 4)
	cn.framesOut.Add(1)
	return nil
}

// deflate compresses p into the connection's reusable scratch buffer.
func (cn *Conn) deflate(p []byte) ([]byte, error) {
	cn.cw.b = cn.cw.b[:0]
	if cn.fw == nil {
		// BestSpeed: the frames are short-lived loopback/LAN traffic;
		// the dictionary already removed most redundancy.
		fw, err := flate.NewWriter(&cn.cw, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		cn.fw = fw
	} else {
		cn.fw.Reset(&cn.cw)
	}
	if _, err := cn.fw.Write(p); err != nil {
		return nil, err
	}
	if err := cn.fw.Close(); err != nil {
		return nil, err
	}
	return cn.cw.b, nil
}

// ReadFrame reads one frame and returns its type byte and payload
// body (the payload minus the type byte). The body aliases an
// internal buffer valid until the next ReadFrame.
func (cn *Conn) ReadFrame() (byte, []byte, error) {
	if _, err := io.ReadFull(cn.br, cn.rhdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(cn.rhdr[:])
	compressed := n&frameCompressed != 0
	n &^= frameCompressed
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("dshard: bad frame length %d", n)
	}
	var b []byte
	if compressed {
		if !cn.compress {
			return 0, nil, fmt.Errorf("dshard: compressed frame without negotiated compression")
		}
		if cap(cn.cbuf) < int(n) {
			cn.cbuf = make([]byte, n)
		}
		c := cn.cbuf[:n]
		if _, err := io.ReadFull(cn.br, c); err != nil {
			return 0, nil, err
		}
		var err error
		if b, err = cn.inflate(c); err != nil {
			return 0, nil, fmt.Errorf("dshard: corrupt compressed frame: %w", err)
		}
		if len(b) == 0 {
			return 0, nil, fmt.Errorf("dshard: empty compressed frame")
		}
	} else {
		if cap(cn.rbuf) < int(n) {
			cn.rbuf = make([]byte, n)
		}
		b = cn.rbuf[:n]
		if _, err := io.ReadFull(cn.br, b); err != nil {
			return 0, nil, err
		}
	}
	cn.bytesIn.Add(int64(n) + 4)
	cn.rawBytesIn.Add(int64(len(b)) + 4)
	cn.framesIn.Add(1)
	return b[0], b[1:], nil
}

// inflate decompresses c into the connection's reusable read buffer,
// hard-bounded at MaxFrame so a hostile compressed payload cannot
// drive an unbounded allocation.
func (cn *Conn) inflate(c []byte) ([]byte, error) {
	cn.frSrc.Reset(c)
	if cn.fr == nil {
		cn.fr = flate.NewReader(&cn.frSrc)
	} else if err := cn.fr.(flate.Resetter).Reset(&cn.frSrc, nil); err != nil {
		return nil, err
	}
	if cap(cn.rbuf) < 4<<10 {
		cn.rbuf = make([]byte, 4<<10)
	}
	total := 0
	for {
		if total == cap(cn.rbuf) {
			if cap(cn.rbuf) >= MaxFrame {
				// Full at the limit: legal only if the stream ends
				// exactly here.
				var probe [1]byte
				for {
					n, err := cn.fr.Read(probe[:])
					if n > 0 {
						return nil, fmt.Errorf("decompressed frame exceeds MaxFrame")
					}
					if err == io.EOF {
						return cn.rbuf[:total], nil
					}
					if err != nil {
						return nil, err
					}
				}
			}
			grown := make([]byte, min(2*cap(cn.rbuf), MaxFrame))
			copy(grown, cn.rbuf[:total])
			cn.rbuf = grown
		}
		n, err := cn.fr.Read(cn.rbuf[total:cap(cn.rbuf)])
		total += n
		if err == io.EOF {
			return cn.rbuf[:total], nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// ---- primitive append/decode helpers ----

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendEdge(b []byte, e stream.Edge) []byte {
	b = appendString(b, e.Src)
	b = appendString(b, e.SrcLabel)
	b = appendString(b, e.Dst)
	b = appendString(b, e.DstLabel)
	b = appendString(b, e.Type)
	return binary.AppendVarint(b, e.TS)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// dec is a cursor over one payload; the first decode error sticks and
// every subsequent read returns zero values. A non-nil tbl switches
// string decoding to the v2 dictionary form and edge lists to
// within-frame delta timestamps (see dict.go).
type dec struct {
	b   []byte
	err error
	tbl *strTable
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("dshard: truncated or corrupt %s", what)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) bool_() bool { return d.uvarint() != 0 }

func (d *dec) string_() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail("string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count decodes a list length and rejects any count that could not
// possibly fit in the remaining payload given the element type's
// minimum encoded size — so a hostile count prefix can never drive an
// allocation larger than (frame size / minSize) elements. The bound is
// computed by division so a huge count cannot overflow it.
func (d *dec) count(what string, minSize uint64) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b))/minSize {
		d.fail(what + " count")
	}
	return int(n)
}

// Minimum encoded element sizes for count bounds: an edge is five
// length-prefixed strings plus a timestamp varint; a binding is two
// strings; a match edge is an index, three strings and a timestamp; a
// string and a leaf are at least their own length prefix.
const (
	minEdgeSize      = 6
	minStringSize    = 1
	minLeafSize      = 1
	minBindingSize   = 2
	minMatchEdgeSize = 5
)

func (d *dec) edge() stream.Edge {
	return stream.Edge{
		Src: d.str(), SrcLabel: d.str(),
		Dst: d.str(), DstLabel: d.str(),
		Type: d.str(), TS: d.varint(),
	}
}

func (d *dec) strings() []string {
	n := d.count("string list", minStringSize)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *dec) edges() []stream.Edge {
	n := d.count("edge list", minEdgeSize)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]stream.Edge, n)
	prev := int64(0)
	for i := range out {
		out[i] = d.edge()
		if d.tbl != nil {
			// v2: timestamps are deltas within the list (edges arrive
			// near-monotone, so most deltas fit one byte).
			out[i].TS += prev
			prev = out[i].TS
		}
	}
	return out
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendEdges(b []byte, es []stream.Edge) []byte {
	b = binary.AppendUvarint(b, uint64(len(es)))
	for _, e := range es {
		b = appendEdge(b, e)
	}
	return b
}

// appendStringsW is appendStrings under the connection's negotiated
// encoding (dictionary references on a CapDict connection).
func (cn *Conn) appendStringsW(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = cn.appendStr(b, s)
	}
	return b
}

// appendEdgesW is appendEdges under the connection's negotiated
// encoding: dictionary references for the five strings and
// within-list delta timestamps on a CapDict connection.
func (cn *Conn) appendEdgesW(b []byte, es []stream.Edge) []byte {
	if cn.dict == nil {
		return appendEdges(b, es)
	}
	b = binary.AppendUvarint(b, uint64(len(es)))
	prev := int64(0)
	for _, e := range es {
		b = cn.appendStr(b, e.Src)
		b = cn.appendStr(b, e.SrcLabel)
		b = cn.appendStr(b, e.Dst)
		b = cn.appendStr(b, e.DstLabel)
		b = cn.appendStr(b, e.Type)
		b = binary.AppendVarint(b, e.TS-prev)
		prev = e.TS
	}
	return b
}

// ---- message writers ----

// WriteHello sends the connection-opening frame.
func (cn *Conn) WriteHello(h Hello) error {
	b := append(cn.wbuf[:0], FrameHello)
	b = binary.AppendUvarint(b, h.Version)
	b = binary.AppendUvarint(b, uint64(h.Slot))
	b = binary.AppendVarint(b, h.Window)
	b = appendBool(b, h.UniversalFilter)
	b = binary.AppendUvarint(b, h.Caps)
	cn.wbuf = b
	return cn.writeFrame(b)
}

// WriteHelloAck answers a hello with the granted capability set (server
// side).
func (cn *Conn) WriteHelloAck(a HelloAck) error {
	b := append(cn.wbuf[:0], FrameHelloAck)
	b = binary.AppendUvarint(b, a.Version)
	b = binary.AppendUvarint(b, a.Caps)
	cn.wbuf = b
	return cn.writeFrame(b)
}

// WriteEdges sends one admitted batch.
func (cn *Conn) WriteEdges(m Edges) error {
	b := append(cn.wbuf[:0], FrameEdges)
	b = binary.AppendUvarint(b, m.Frame)
	b = appendBool(b, m.Suppress)
	b = binary.AppendUvarint(b, m.BaseSeq)
	b = cn.appendEdgesW(b, m.Edges)
	cn.wbuf = b
	return cn.writeFrame(b)
}

// WriteRegister sends one registration control frame.
func (cn *Conn) WriteRegister(m Register) error {
	b := append(cn.wbuf[:0], FrameRegister)
	b = binary.AppendUvarint(b, m.Frame)
	b = appendBool(b, m.Suppress)
	b = cn.appendStr(b, m.Name)
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendUvarint(b, uint64(m.Rank))
	// The query text is one-off free text; it stays plain even on a
	// dictionary connection.
	b = appendString(b, m.Query)
	b = binary.AppendUvarint(b, uint64(m.Strategy))
	b = appendBool(b, m.HasLeaves)
	b = binary.AppendUvarint(b, uint64(len(m.Leaves)))
	for _, leaf := range m.Leaves {
		b = binary.AppendUvarint(b, uint64(len(leaf)))
		for _, idx := range leaf {
			b = binary.AppendUvarint(b, uint64(idx))
		}
	}
	b = binary.AppendUvarint(b, uint64(m.MaxMatches))
	b = binary.AppendVarint(b, m.MaxWork)
	b = binary.AppendVarint(b, m.MaxSteps)
	b = binary.AppendUvarint(b, 0) // where older frames carried a search-pool size
	b = appendBool(b, m.FilterUniversal)
	b = cn.appendStringsW(b, m.FilterTypes)
	b = cn.appendEdgesW(b, m.Backfill)
	if len(m.State) > 0 {
		// Trailing migration-state field: old decoders stop at the
		// backfill and never see it, new decoders read it only when
		// bytes remain — the same one-way extension HelloAck.Caps uses.
		b = binary.AppendUvarint(b, uint64(len(m.State)))
		b = append(b, m.State...)
	}
	cn.wbuf = b
	return cn.writeFrame(b)
}

// WriteBackfill sends one backfill continuation chunk.
func (cn *Conn) WriteBackfill(m BackfillChunk) error {
	b := append(cn.wbuf[:0], FrameBackfill)
	b = binary.AppendUvarint(b, m.Frame)
	b = cn.appendStr(b, m.Name)
	b = cn.appendEdgesW(b, m.Edges)
	cn.wbuf = b
	return cn.writeFrame(b)
}

// WriteUnregister sends one removal control frame.
func (cn *Conn) WriteUnregister(m Unregister) error {
	b := append(cn.wbuf[:0], FrameUnregister)
	b = binary.AppendUvarint(b, m.Frame)
	b = appendBool(b, m.Suppress)
	b = cn.appendStr(b, m.Name)
	b = binary.AppendUvarint(b, m.Seq)
	b = appendBool(b, m.FilterUniversal)
	b = cn.appendStringsW(b, m.FilterTypes)
	if m.Migrate {
		// Trailing migration flag; absent (hence false) on frames from
		// routers that predate live migration.
		b = appendBool(b, true)
	}
	cn.wbuf = b
	return cn.writeFrame(b)
}

// WriteCloseStream sends the end-of-stream frame.
func (cn *Conn) WriteCloseStream(m CloseStream) error {
	b := append(cn.wbuf[:0], FrameClose)
	b = binary.AppendUvarint(b, m.Frame)
	b = binary.AppendUvarint(b, m.FinalSeq)
	cn.wbuf = b
	return cn.writeFrame(b)
}

// WriteMatch streams one completed match (server side). On a CapDict
// connection every name goes through the server→client dictionary and
// the match-edge timestamps are within-list deltas.
func (cn *Conn) WriteMatch(m Match) error {
	b := append(cn.wbuf[:0], FrameMatch)
	b = binary.AppendUvarint(b, m.Frame)
	b = cn.appendStr(b, m.Query)
	b = binary.AppendUvarint(b, uint64(m.Rank))
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendVarint(b, m.FirstTS)
	b = binary.AppendVarint(b, m.LastTS)
	b = binary.AppendUvarint(b, uint64(len(m.Bindings)))
	for _, bd := range m.Bindings {
		b = cn.appendStr(b, bd.QueryVertex)
		b = cn.appendStr(b, bd.DataVertex)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Edges)))
	prev := int64(0)
	for _, e := range m.Edges {
		b = binary.AppendUvarint(b, uint64(e.QueryEdge))
		b = cn.appendStr(b, e.Src)
		b = cn.appendStr(b, e.Dst)
		b = cn.appendStr(b, e.Type)
		if cn.dict != nil {
			b = binary.AppendVarint(b, e.TS-prev)
			prev = e.TS
		} else {
			b = binary.AppendVarint(b, e.TS)
		}
	}
	cn.wbuf = b
	return cn.writeFrame(b)
}

// WriteDone acknowledges one client frame (server side).
func (cn *Conn) WriteDone(m Done) error {
	b := append(cn.wbuf[:0], FrameDone)
	b = binary.AppendUvarint(b, m.Frame)
	b = appendString(b, m.Err)
	r := m.Report
	for _, v := range [...]int64{
		r.Live, r.Stored, r.Types, r.Vertices, r.VertexSlots, r.Edges, r.Partial,
		r.TreeInserted, r.TreeDeduped, r.TreeEmitted, r.TreeEvicted, r.PoolGets, r.PoolFresh,
	} {
		b = binary.AppendVarint(b, v)
	}
	cn.wbuf = b
	return cn.writeFrame(b)
}

// ---- message decoders (payload body, i.e. frame minus type byte) ----

// DecodeHello parses a FrameHello body. Of a hello of another version
// than ProtocolVersion it reads the version only — the rest is laid out
// as that version lays it out — so the caller can refuse it by version.
func DecodeHello(body []byte) (Hello, error) {
	d := dec{b: body}
	h := Hello{Version: d.uvarint()}
	if d.err != nil || h.Version != ProtocolVersion {
		return h, d.err
	}
	h.Slot = int(d.uvarint())
	h.Window = d.varint()
	h.UniversalFilter = d.bool_()
	h.Caps = d.uvarint()
	return h, d.err
}

// DecodeHelloAck parses a FrameHelloAck body.
func DecodeHelloAck(body []byte) (HelloAck, error) {
	d := dec{b: body}
	a := HelloAck{Version: d.uvarint(), Caps: d.uvarint()}
	return a, d.err
}

// DecodeEdges parses a FrameEdges body under the connection's
// negotiated encoding, updating the connection's decode dictionary.
func (cn *Conn) DecodeEdges(body []byte) (Edges, error) { return decodeEdges(body, cn.tbl) }

func decodeEdges(body []byte, tbl *strTable) (Edges, error) {
	d := dec{b: body, tbl: tbl}
	m := Edges{Frame: d.uvarint(), Suppress: d.bool_(), BaseSeq: d.uvarint()}
	m.Edges = d.edges()
	return m, d.err
}

// DecodeRegister parses a FrameRegister body under the connection's
// negotiated encoding, updating the connection's decode dictionary.
func (cn *Conn) DecodeRegister(body []byte) (Register, error) { return decodeRegister(body, cn.tbl) }

func decodeRegister(body []byte, tbl *strTable) (Register, error) {
	d := dec{b: body, tbl: tbl}
	m := Register{
		Frame: d.uvarint(), Suppress: d.bool_(),
		Name: d.str(), Seq: d.uvarint(), Rank: int(d.uvarint()),
		Query: d.string_(), Strategy: int(d.uvarint()),
	}
	m.HasLeaves = d.bool_()
	nl := d.count("leaf", minLeafSize)
	if d.err == nil && nl > 0 {
		m.Leaves = make([][]int, nl)
		for i := range m.Leaves {
			ne := d.count("leaf edge", minLeafSize)
			if d.err != nil {
				break
			}
			m.Leaves[i] = make([]int, ne)
			for j := range m.Leaves[i] {
				m.Leaves[i][j] = int(d.uvarint())
			}
		}
	}
	m.MaxMatches = int(d.uvarint())
	m.MaxWork = d.varint()
	m.MaxSteps = d.varint()
	d.uvarint() // the search-pool size of older frames
	m.FilterUniversal = d.bool_()
	m.FilterTypes = d.strings()
	m.Backfill = d.edges()
	if d.err == nil && len(d.b) > 0 {
		// Trailing migration-state field (see WriteRegister). Copied:
		// the body aliases the connection read buffer, and the engine
		// transplant may outlive the frame.
		n := d.uvarint()
		if d.err == nil && uint64(len(d.b)) < n {
			d.fail("register state")
		}
		if d.err == nil {
			m.State = append([]byte(nil), d.b[:n]...)
			d.b = d.b[n:]
		}
	}
	return m, d.err
}

// DecodeBackfill parses a FrameBackfill body under the connection's
// negotiated encoding, updating the connection's decode dictionary.
func (cn *Conn) DecodeBackfill(body []byte) (BackfillChunk, error) {
	return decodeBackfill(body, cn.tbl)
}

func decodeBackfill(body []byte, tbl *strTable) (BackfillChunk, error) {
	d := dec{b: body, tbl: tbl}
	m := BackfillChunk{Frame: d.uvarint(), Name: d.str()}
	m.Edges = d.edges()
	return m, d.err
}

// DecodeUnregister parses a FrameUnregister body under the
// connection's negotiated encoding, updating the connection's decode
// dictionary.
func (cn *Conn) DecodeUnregister(body []byte) (Unregister, error) {
	return decodeUnregister(body, cn.tbl)
}

func decodeUnregister(body []byte, tbl *strTable) (Unregister, error) {
	d := dec{b: body, tbl: tbl}
	m := Unregister{
		Frame: d.uvarint(), Suppress: d.bool_(),
		Name: d.str(), Seq: d.uvarint(),
	}
	m.FilterUniversal = d.bool_()
	m.FilterTypes = d.strings()
	if d.err == nil && len(d.b) > 0 {
		m.Migrate = d.bool_() // trailing migration flag (see WriteUnregister)
	}
	return m, d.err
}

// DecodeCloseStream parses a FrameClose body.
func DecodeCloseStream(body []byte) (CloseStream, error) {
	d := dec{b: body}
	m := CloseStream{Frame: d.uvarint(), FinalSeq: d.uvarint()}
	return m, d.err
}

// DecodeMatch parses a FrameMatch body under the connection's
// negotiated encoding, updating the connection's decode dictionary.
func (cn *Conn) DecodeMatch(body []byte) (Match, error) { return decodeMatch(body, cn.tbl) }

func decodeMatch(body []byte, tbl *strTable) (Match, error) {
	d := dec{b: body, tbl: tbl}
	m := Match{
		Frame: d.uvarint(), Query: d.str(), Rank: int(d.uvarint()),
		Seq: d.uvarint(), FirstTS: d.varint(), LastTS: d.varint(),
	}
	nb := d.count("binding", minBindingSize)
	if d.err == nil && nb > 0 {
		m.Bindings = make([]Binding, nb)
		for i := range m.Bindings {
			m.Bindings[i] = Binding{QueryVertex: d.str(), DataVertex: d.str()}
		}
	}
	ne := d.count("match edge", minMatchEdgeSize)
	if d.err == nil && ne > 0 {
		m.Edges = make([]MatchEdge, ne)
		prev := int64(0)
		for i := range m.Edges {
			m.Edges[i] = MatchEdge{
				QueryEdge: int(d.uvarint()),
				Src:       d.str(), Dst: d.str(), Type: d.str(),
				TS: d.varint(),
			}
			if tbl != nil {
				m.Edges[i].TS += prev
				prev = m.Edges[i].TS
			}
		}
	}
	return m, d.err
}

// DecodeDone parses a FrameDone body.
func DecodeDone(body []byte) (Done, error) {
	d := dec{b: body}
	m := Done{Frame: d.uvarint(), Err: d.string_(), Report: Report{
		Live: d.varint(), Stored: d.varint(), Types: d.varint(), Vertices: d.varint(), VertexSlots: d.varint(),
		Edges: d.varint(), Partial: d.varint(),
		TreeInserted: d.varint(), TreeDeduped: d.varint(), TreeEmitted: d.varint(), TreeEvicted: d.varint(),
		PoolGets: d.varint(), PoolFresh: d.varint(),
	}}
	return m, d.err
}
