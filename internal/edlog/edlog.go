// Package edlog implements the durable, segment-backed form of the
// shard runtime's EdgeLog: an append-only sequence of admitted edge
// batches on disk, bounded by deleting whole sealed segments once the
// window (and every snapshot that might replay them) has moved past.
//
// Layout. A log is a directory of segment files named
// edgelog-<firstSeq>.seg (zero-padded so lexical order is seq order).
// A segment is a sequence of records:
//
//	u32  payload length (little-endian)
//	u32  CRC-32C of the payload (little-endian)
//	payload:
//	     uvarint  base arrival seq of the batch
//	     edge list in the dshard edge-list codec (uvarint count, then
//	     each edge as five length-prefixed strings + zigzag-varint
//	     timestamp)
//
// One record is one admitted batch, so record boundaries are exactly
// the router's batch boundaries (and therefore frame boundaries on the
// wire and checkpoint boundaries in recovery).
//
// Crash safety. Appends go to the tail of the active (last) segment;
// a crash can therefore tear at most the final record of the final
// segment. Open validates every record's length and CRC and, on the
// last segment only, truncates the file back to the last valid record
// — a torn tail write recovers to the previous batch boundary. A bad
// record in a sealed (non-last) segment is real corruption and fails
// Open. Rotation seals the active segment once it exceeds the
// configured size and starts a new file, so window trimming can delete
// whole sealed files without rewriting anything.
//
// Durability is explicit: Append writes through the OS but does not
// fsync; callers decide the boundary (the shard router syncs before
// publishing a checkpoint, so a checkpoint never covers edges the log
// could still lose). See docs/PERSISTENCE.md for the trade-offs.
package edlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"streamgraph/internal/dshard"
	"streamgraph/internal/stream"
)

// DefaultSegmentBytes is the rotation threshold when Open is given a
// non-positive one.
const DefaultSegmentBytes = 4 << 20

// maxRecordBytes bounds a single record's payload, mirroring
// dshard.MaxFrame: a corrupt length prefix must not drive a huge
// allocation, and any batch that fits a wire frame fits a record.
const maxRecordBytes = 64 << 20

const recordHeader = 8 // u32 length + u32 crc

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segment is the in-memory index entry for one on-disk segment file.
type segment struct {
	path     string
	firstSeq uint64 // base seq of the first record
	endSeq   uint64 // seq one past the last edge
	maxTS    int64  // largest timestamp in the segment
	bytes    int64
}

// Log is an open durable edge log. It is not safe for concurrent use;
// the shard router appends under its ingest lock, matching the
// in-memory EdgeLog's single-appender contract.
type Log struct {
	dir      string
	segBytes int64
	segs     []segment
	active   *os.File // tail of segs, open for append; nil when empty
	buf      []byte
}

// Open opens (or creates) the log in dir, validating every record and
// truncating a torn tail write back to the last valid record.
// segmentBytes is the rotation threshold (DefaultSegmentBytes when
// <= 0).
func Open(dir string, segmentBytes int64) (*Log, error) {
	if segmentBytes <= 0 {
		segmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("edlog: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "edgelog-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("edlog: %w", err)
	}
	sort.Strings(names) // zero-padded first seq: lexical order = seq order
	l := &Log{dir: dir, segBytes: segmentBytes}
	for i, name := range names {
		last := i == len(names)-1
		seg, err := l.scanSegment(name, last)
		if err != nil {
			return nil, err
		}
		if seg.bytes == 0 {
			// A rotation that crashed before its first record, or a
			// fully torn single-record segment: drop the empty file.
			if err := os.Remove(name); err != nil {
				return nil, fmt.Errorf("edlog: %w", err)
			}
			continue
		}
		l.segs = append(l.segs, seg)
	}
	if n := len(l.segs); n > 0 {
		f, err := os.OpenFile(l.segs[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("edlog: %w", err)
		}
		l.active = f
	}
	return l, nil
}

// scanSegment validates one segment file. For the last segment a
// trailing invalid record is a torn write: the file is truncated back
// to the last valid boundary. For sealed segments it is corruption.
func (l *Log) scanSegment(path string, last bool) (segment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segment{}, fmt.Errorf("edlog: %w", err)
	}
	seg := segment{path: path, maxTS: -1 << 62}
	valid := int64(0)
	first := true
	for off := 0; off < len(data); {
		rest := data[off:]
		if len(rest) < recordHeader {
			break // torn header
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n == 0 || n > maxRecordBytes || uint64(len(rest)-recordHeader) < uint64(n) {
			break // torn or insane length
		}
		payload := rest[recordHeader : recordHeader+int(n)]
		if crc32.Checksum(payload, crcTable) != sum {
			break // torn payload
		}
		baseSeq, edges, err := decodePayload(payload)
		if err != nil {
			break // CRC passed but codec failed: treat as invalid record
		}
		if first {
			seg.firstSeq = baseSeq
			first = false
		}
		seg.endSeq = baseSeq + uint64(len(edges))
		for _, e := range edges {
			if e.TS > seg.maxTS {
				seg.maxTS = e.TS
			}
		}
		off += recordHeader + int(n)
		valid = int64(off)
	}
	if valid < int64(len(data)) {
		if !last {
			return segment{}, fmt.Errorf("edlog: corrupt record in sealed segment %s at offset %d", path, valid)
		}
		if err := os.Truncate(path, valid); err != nil {
			return segment{}, fmt.Errorf("edlog: %w", err)
		}
	}
	seg.bytes = valid
	return seg, nil
}

func decodePayload(p []byte) (uint64, []stream.Edge, error) {
	baseSeq, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("edlog: bad base seq")
	}
	edges, rest, err := dshard.DecodeEdgeList(p[n:])
	if err != nil {
		return 0, nil, err
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("edlog: %d trailing bytes in record", len(rest))
	}
	return baseSeq, edges, nil
}

// Append writes one admitted batch as a single record, rotating to a
// fresh segment first when the active one is full. The write reaches
// the OS but is not fsynced; call Sync at durability boundaries.
func (l *Log) Append(edges []stream.Edge, baseSeq uint64) error {
	if len(edges) == 0 {
		return nil
	}
	if n := len(l.segs); n > 0 && baseSeq < l.segs[n-1].endSeq {
		return fmt.Errorf("edlog: append at seq %d overlaps log end %d", baseSeq, l.segs[n-1].endSeq)
	}
	payload := binary.AppendUvarint(l.buf[:0], baseSeq)
	payload = dshard.AppendEdgeList(payload, edges)
	l.buf = payload
	rec := int64(recordHeader + len(payload))
	if n := len(l.segs); n == 0 || l.segs[n-1].bytes+rec > l.segBytes && l.segs[n-1].bytes > 0 {
		if err := l.rotate(baseSeq); err != nil {
			return err
		}
	}
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := l.active.Write(hdr[:]); err != nil {
		return fmt.Errorf("edlog: %w", err)
	}
	if _, err := l.active.Write(payload); err != nil {
		return fmt.Errorf("edlog: %w", err)
	}
	seg := &l.segs[len(l.segs)-1]
	if seg.bytes == 0 {
		seg.firstSeq = baseSeq
	}
	seg.endSeq = baseSeq + uint64(len(edges))
	for _, e := range edges {
		if e.TS > seg.maxTS {
			seg.maxTS = e.TS
		}
	}
	seg.bytes += rec
	return nil
}

// rotate seals the active segment and opens a fresh one whose name
// carries the base seq of its first record.
func (l *Log) rotate(firstSeq uint64) error {
	if l.active != nil {
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("edlog: %w", err)
		}
		l.active = nil
	}
	path := filepath.Join(l.dir, fmt.Sprintf("edgelog-%020d.seg", firstSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("edlog: %w", err)
	}
	l.active = f
	l.segs = append(l.segs, segment{path: path, firstSeq: firstSeq, maxTS: -1 << 62})
	return nil
}

// Sync fsyncs the active segment: every record appended so far is
// durable once it returns.
func (l *Log) Sync() error {
	if l.active == nil {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("edlog: %w", err)
	}
	return nil
}

// Replay streams every retained record — the batch's edges and base
// seq, in arrival order — through fn. It reads from disk, not from
// the in-memory index, so it sees exactly what a restart would.
func (l *Log) Replay(fn func(edges []stream.Edge, baseSeq uint64) error) error {
	for _, seg := range l.segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("edlog: %w", err)
		}
		if int64(len(data)) > seg.bytes {
			data = data[:seg.bytes]
		}
		for off := 0; off < len(data); {
			rest := data[off:]
			if len(rest) < recordHeader {
				return fmt.Errorf("edlog: truncated record in %s", seg.path)
			}
			n := binary.LittleEndian.Uint32(rest)
			sum := binary.LittleEndian.Uint32(rest[4:])
			if n == 0 || n > maxRecordBytes || uint64(len(rest)-recordHeader) < uint64(n) {
				return fmt.Errorf("edlog: bad record length in %s", seg.path)
			}
			payload := rest[recordHeader : recordHeader+int(n)]
			if crc32.Checksum(payload, crcTable) != sum {
				return fmt.Errorf("edlog: checksum mismatch in %s at offset %d", seg.path, off)
			}
			baseSeq, edges, err := decodePayload(payload)
			if err != nil {
				return err
			}
			if err := fn(edges, baseSeq); err != nil {
				return err
			}
			off += recordHeader + int(n)
		}
	}
	return nil
}

// TrimBefore deletes leading sealed segments that are both entirely
// expired (every timestamp < cutoff) and entirely covered by every
// snapshot (end seq <= keepSeq). Like the in-memory log it stops at
// the first segment that must stay, and it never deletes the active
// segment. It returns the number of segments deleted.
func (l *Log) TrimBefore(cutoff int64, keepSeq uint64) int {
	k := 0
	for k < len(l.segs)-1 && l.segs[k].maxTS < cutoff && l.segs[k].endSeq <= keepSeq {
		k++
	}
	for i := 0; i < k; i++ {
		os.Remove(l.segs[i].path)
	}
	if k > 0 {
		l.segs = append(l.segs[:0], l.segs[k:]...)
	}
	return k
}

// EndSeq reports the seq one past the last durable edge (0 when the
// log is empty).
func (l *Log) EndSeq() uint64 {
	if len(l.segs) == 0 {
		return 0
	}
	return l.segs[len(l.segs)-1].endSeq
}

// FirstSeq reports the base seq of the oldest retained record (0 when
// the log is empty).
func (l *Log) FirstSeq() uint64 {
	if len(l.segs) == 0 {
		return 0
	}
	return l.segs[0].firstSeq
}

// MaxTS reports the largest timestamp in the retained segments
// (math.MinInt64-ish sentinel when the log is empty); the durable
// window cutoff is computed from it.
func (l *Log) MaxTS() int64 {
	max := int64(-1 << 62)
	for _, seg := range l.segs {
		if seg.maxTS > max {
			max = seg.maxTS
		}
	}
	return max
}

// DiskBytes reports the total size of the retained segment files.
func (l *Log) DiskBytes() int64 {
	var n int64
	for _, seg := range l.segs {
		n += seg.bytes
	}
	return n
}

// Segments reports the number of retained segment files.
func (l *Log) Segments() int { return len(l.segs) }

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Close closes the active segment file. The log must not be used
// afterwards.
func (l *Log) Close() error {
	if l.active == nil {
		return nil
	}
	err := l.active.Close()
	l.active = nil
	if err != nil {
		return fmt.Errorf("edlog: %w", err)
	}
	return nil
}

// IsSegmentFile reports whether name (a base name, no directory) is a
// log segment file. Exposed for tooling and tests that sweep a data
// directory.
func IsSegmentFile(name string) bool {
	return strings.HasPrefix(name, "edgelog-") && strings.HasSuffix(name, ".seg")
}
