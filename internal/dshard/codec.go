package dshard

import "streamgraph/internal/stream"

// Exported edge-list codec: a uvarint count followed by edges, each
// five length-prefixed strings and a zigzag-varint timestamp. It is the
// durable EdgeLog's (internal/edlog) record payload. Frames do not use
// it: they intern strings in the connection's dictionary (dict.go),
// which a log record would outlive.

// AppendEdgeList appends the wire encoding of es to b and returns the
// extended slice.
func AppendEdgeList(b []byte, es []stream.Edge) []byte {
	return appendEdges(b, es)
}

// DecodeEdgeList decodes one wire-encoded edge list from the front of
// b, returning the edges and the unconsumed remainder.
func DecodeEdgeList(b []byte) ([]stream.Edge, []byte, error) {
	d := dec{b: b}
	es := d.edges()
	if d.err != nil {
		return nil, nil, d.err
	}
	return es, d.b, nil
}
