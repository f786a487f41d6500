package dshard

// The string dictionary. Vertex names, labels and edge types repeat
// endlessly on a connection — every edge frame re-ships five of them —
// so each connection interns each distinct string once per direction:
// its first occurrence travels as a definition (explicit id + bytes),
// every later occurrence as a 1–3 byte reference. The dictionary is
// strictly per connection and per direction, mirroring the in-process
// graph.Interner: a reconnect starts empty and the replay re-interns,
// so exactly-once recovery needs no cross-connection dictionary state.
//
// Reference encoding (one uvarint tag):
//
//	tag == 0  inline: uvarint length + bytes, NOT interned (the
//	          encoder's overflow escape once the dictionary is full)
//	tag == 1  definition: uvarint id + uvarint length + bytes; id must
//	          equal the table length (ids are dense and in order — a
//	          duplicate or gapped id is a protocol error) and stay
//	          under maxDictEntries
//	tag >= 2  reference to id tag-2, which must already be defined
//
// The explicit id makes decoder validation exact: unknown ids,
// duplicate definitions and id gaps are all hard errors, never silent
// misdecodes.

import (
	"encoding/binary"
	"sync/atomic"
)

// maxDictEntries caps a per-direction dictionary. An honest encoder
// falls back to inline (non-interned) strings at the cap, so streams
// with more distinct strings than this still flow — at a length
// prefix per string for the overflow — while a hostile peer cannot grow
// a table without bound.
const maxDictEntries = 1 << 21

// strDict is the encode side: string → dense id, first-seen order.
// Mutated only by the connection's single writer goroutine; the
// entry/byte counters are atomics because metrics scrapes read them
// from arbitrary goroutines.
type strDict struct {
	ids     map[string]uint32
	entries atomic.Int64
	bytes   atomic.Int64
}

func newStrDict() *strDict {
	return &strDict{ids: make(map[string]uint32)}
}

// strTable is the decode side: dense id → string. Mutated only by the
// connection's single reader goroutine; counters as in strDict.
type strTable struct {
	vals    []string
	entries atomic.Int64
	bytes   atomic.Int64
}

// appendStr encodes one string as a dictionary reference, or as a
// definition on its first occurrence.
func (cn *Conn) appendStr(b []byte, s string) []byte {
	sd := cn.dict
	if id, ok := sd.ids[s]; ok {
		return binary.AppendUvarint(b, uint64(id)+2)
	}
	if len(sd.ids) >= maxDictEntries {
		b = append(b, 0)
		return appendString(b, s)
	}
	id := uint32(len(sd.ids))
	sd.ids[s] = id
	sd.entries.Add(1)
	sd.bytes.Add(int64(len(s)))
	b = append(b, 1)
	b = binary.AppendUvarint(b, uint64(id))
	return appendString(b, s)
}

// str decodes one string under the cursor's table: dictionary form in
// a frame, plain length-prefixed when tbl is nil (the edge-list codec).
func (d *dec) str() string {
	if d.tbl == nil {
		return d.string_()
	}
	tag := d.uvarint()
	if d.err != nil {
		return ""
	}
	switch tag {
	case 0:
		return d.string_()
	case 1:
		id := d.uvarint()
		s := d.string_()
		if d.err != nil {
			return ""
		}
		if id != uint64(len(d.tbl.vals)) || id >= maxDictEntries {
			// Duplicate definition (id already assigned), id gap (id
			// past the next dense slot), or table overflow.
			d.fail("string dictionary definition id")
			return ""
		}
		d.tbl.vals = append(d.tbl.vals, s)
		d.tbl.entries.Add(1)
		d.tbl.bytes.Add(int64(len(s)))
		return s
	default:
		id := tag - 2
		if id >= uint64(len(d.tbl.vals)) {
			d.fail("string dictionary reference")
			return ""
		}
		return d.tbl.vals[id]
	}
}
