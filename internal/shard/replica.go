// Filtered replicas. Each shard worker's engine stores only the edges
// routable to its queries: the union edge-type footprint of the
// queries it owns (core.MultiEngine's replica filter). Two structures
// maintain that invariant as queries come and go at runtime:
//
//   - EdgeLog, a shared append-only log of every admitted batch. The
//     router appends under its ingest lock; shard workers read
//     immutable snapshots concurrently, so a worker backfilling a
//     widened replica never blocks ingestion or the other shards. A
//     registration without statistics is decomposed from its window.
//   - replicaSet, the per-shard refcount of footprint types, kept
//     router-side only: Router.admit moves it at each control point,
//     rebuilds the ingest gate from it, and stamps the control message
//     with the engine filter and backfill set it implies, which the
//     slot — local or remote — applies as is.
//
// The replica invariant: a shard's graph holds exactly the in-window
// logged edges whose type is in its current footprint (modulo sweep
// slack). A replica's sweep clock sees only the edges it is offered, so
// it sweeps at a serial engine's cutoffs or later, never ahead, which is
// harmless (see core's sweepClock). Register widens the footprint and
// backfills the missing past from the log; Unregister narrows it and
// trims the now-unreachable edges.
package shard

import (
	"sort"
	"sync/atomic"

	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

// logSegment is one admitted batch: the shared read-only edge slice,
// the arrival sequence of its first edge, and the segment's maximum
// timestamp (for window trimming).
type logSegment struct {
	edges   []stream.Edge
	baseSeq uint64
	maxTS   int64
}

// logView is one immutable snapshot of the log: a segment slice that
// is never mutated after publication, plus the maximum timestamp seen.
type logView struct {
	segs  []logSegment
	maxTS int64
}

// EdgeLog is the shared immutable edge log behind replica backfill: an
// append-only sequence of admitted batches with copy-on-write snapshot
// publication. There is a single appender (the router, under its
// ingest lock); any number of readers take Snapshot-consistent views
// lock-free, so a backfilling shard never contends with the ingest hot
// path. Memory is bounded by the window — TrimBefore drops leading
// segments wholesale once every timestamp in them has expired — except
// for what remote slots pin: a live remote registration holds the log
// from its registration-time floor onward (the reconnect replay
// entitlement, see remote.go's pinFloor and docs/DISTRIBUTED.md's
// failure table), so long-lived remote registrations trade log growth
// for exact crash recovery.
type EdgeLog struct {
	view    atomic.Pointer[logView]
	segs    []logSegment // appender-owned backing; views alias prefixes of it
	dropped int          // trimmed headers still pinned in the backing array
	max     int64
}

// NewEdgeLog returns an empty log.
func NewEdgeLog() *EdgeLog {
	l := &EdgeLog{}
	l.view.Store(&logView{})
	return l
}

// Append records one admitted batch. The slice is retained and must
// not be mutated afterwards (the same contract as Router.IngestBatch).
// Only one goroutine may append.
func (l *EdgeLog) Append(ses []stream.Edge, baseSeq uint64) {
	if len(ses) == 0 {
		return
	}
	maxTS := ses[0].TS
	for _, se := range ses[1:] {
		if se.TS > maxTS {
			maxTS = se.TS
		}
	}
	if maxTS > l.max {
		l.max = maxTS
	}
	// Appending may grow the backing array; published views keep their
	// own slice headers over the old (or shared) backing, and the new
	// element lies beyond every published length, so readers never
	// observe it until the new view is stored.
	l.segs = append(l.segs, logSegment{edges: ses, baseSeq: baseSeq, maxTS: maxTS})
	l.view.Store(&logView{segs: l.segs, maxTS: l.max})
}

// TrimBefore drops leading segments whose every edge has timestamp <
// cutoff AND whose every arrival seq is below keepSeq. Like graph
// eviction it stops at the first segment that must be kept, so an
// out-of-order old segment behind a newer one is dropped on a later
// call. Only the appender may trim. It returns the number of segments
// dropped.
//
// keepSeq is the seq-based pin the snapshot protocol introduces: a
// remote slot holding an engine snapshot at stream position S replays
// only the log tail past S after a reconnect, so every segment at or
// beyond the oldest such S must survive even when its timestamps have
// left the window (the tail replay must be gap-free — a skipped batch
// would leave its edges out of the restored replica). Pass ^uint64(0)
// to pin nothing by seq.
func (l *EdgeLog) TrimBefore(cutoff int64, keepSeq uint64) int {
	k := 0
	for k < len(l.segs) && l.segs[k].maxTS < cutoff &&
		l.segs[k].baseSeq+uint64(len(l.segs[k].edges)) <= keepSeq {
		k++
	}
	if k == 0 {
		return 0
	}
	l.segs = l.segs[k:]
	l.dropped += k
	// The dropped headers stay live in the shared backing array — they
	// cannot be zeroed in place while published views may alias it —
	// so once the dead prefix dominates, copy the live suffix into a
	// fresh array and let the old one (and the edge slices it pins) go
	// to the collector when the last old view does.
	if l.dropped > len(l.segs) && l.dropped > 64 {
		l.segs = append([]logSegment(nil), l.segs...)
		l.dropped = 0
	}
	l.view.Store(&logView{segs: l.segs, maxTS: l.max})
	return k
}

// Segments reports the current segment count (diagnostics).
func (l *EdgeLog) Segments() int { return len(l.view.Load().segs) }

// FirstSeq reports the arrival seq of the oldest retained edge, and
// false when the log is empty. The pin-advance test watches it move
// past a long-lived registration's window floor once checkpoints
// retire the reconnect entitlement.
func (l *EdgeLog) FirstSeq() (uint64, bool) {
	segs := l.view.Load().segs
	if len(segs) == 0 {
		return 0, false
	}
	return segs[0].baseSeq, true
}

// NumEdges reports the number of retained edges (diagnostics: the live
// in-memory log size, a proxy for the bytes the log pins).
func (l *EdgeLog) NumEdges() int {
	n := 0
	for _, seg := range l.view.Load().segs {
		n += len(seg.edges)
	}
	return n
}

// MaxTS reports the largest timestamp appended so far.
func (l *EdgeLog) MaxTS() int64 { return l.view.Load().maxTS }

// Replay invokes fn for every logged edge with arrival sequence <
// beforeSeq and timestamp >= minTS, in arrival order, against one
// consistent snapshot of the log. Returning false stops the replay.
// It is safe to call concurrently with Append and TrimBefore.
func (l *EdgeLog) Replay(beforeSeq uint64, minTS int64, fn func(se stream.Edge, seq uint64) bool) {
	v := l.view.Load()
	for _, seg := range v.segs {
		if seg.baseSeq >= beforeSeq {
			return
		}
		for i, se := range seg.edges {
			seq := seg.baseSeq + uint64(i)
			if seq >= beforeSeq {
				return
			}
			if se.TS < minTS {
				continue
			}
			if !fn(se, seq) {
				return
			}
		}
	}
}

// missed returns what a registration at stream position beforeSeq with
// window floor minTS must backfill, given its entitlement relative to
// the footprint the replica already had (replicaSet.newlyNeeded): every
// logged edge before the registration, at or above the floor, whose
// type is newly needed — not in held when needAll, in added otherwise.
// The floor was captured when the registration was admitted, and the
// router pins the log against trimming past it for as long as the
// backfill can be asked for again, so every call finds the same edges.
func (l *EdgeLog) missed(beforeSeq uint64, minTS int64, needAll bool, held, added []string) []stream.Edge {
	if !needAll && len(added) == 0 {
		return nil
	}
	names := added
	if needAll {
		names = held
	}
	listed := make(map[string]bool, len(names))
	for _, tp := range names {
		listed[tp] = true
	}
	var out []stream.Edge
	l.Replay(beforeSeq, minTS, func(se stream.Edge, _ uint64) bool {
		if listed[se.Type] != needAll { // needAll: everything but held
			out = append(out, se)
		}
		return true
	})
	return out
}

// Statistics builds the statistics of the window from one consistent
// snapshot of the log: a collector of the retained edges with
// ts >= MaxTS - window + 1 (all of them when window is 0). The cutoff
// makes the result independent of how far trimming lags (floors, remote
// pins), and equal to what selectivity.FromGraph builds from a graph
// holding the same window. Cost is O(retained edges) per call.
func (l *EdgeLog) Statistics(window int64) *selectivity.Collector {
	v := l.view.Load()
	minTS := selectivity.WindowCutoff(v.maxTS, window)
	c := selectivity.NewCollector()
	for _, seg := range v.segs {
		if seg.maxTS >= minTS {
			c.AddSince(seg.edges, minTS)
		}
	}
	return c
}

// EachSegment invokes fn for every retained batch — the shared
// read-only edge slice and the arrival seq of its first edge, in
// arrival order — against one consistent snapshot of the log.
// Returning false stops the walk. The remote-slot reconnect replay
// iterates the log at batch granularity through it (batch boundaries
// are frame boundaries on the wire). Safe to call concurrently with
// Append and TrimBefore.
func (l *EdgeLog) EachSegment(fn func(edges []stream.Edge, baseSeq uint64) bool) {
	for _, seg := range l.view.Load().segs {
		if !fn(seg.edges, seg.baseSeq) {
			return
		}
	}
}

// replicaSet refcounts the edge-type footprint of the queries assigned
// to one shard. Types are tracked by name (both the router's gate
// interner and the engine's graph interner derive their own IDs from
// the names); wild counts queries whose footprint is inexact
// (wildcard-typed edges) and therefore force full replication while
// registered.
type replicaSet struct {
	refs map[string]int
	wild int
}

func newReplicaSet() *replicaSet { return &replicaSet{refs: make(map[string]int)} }

// universal reports whether the shard must replicate every edge type.
func (s *replicaSet) universal() bool { return s.wild > 0 }

// has reports whether tp is currently in the footprint.
func (s *replicaSet) has(tp string) bool { return s.wild > 0 || s.refs[tp] > 0 }

// add folds one query's footprint in. Callers that need the backfill
// set (the types newly reachable) compute it from the pre-add state,
// since "newly needed" is relative to what the replica already held.
func (s *replicaSet) add(types []string, exact bool) {
	if !exact {
		s.wild++
	}
	for _, tp := range types {
		s.refs[tp]++
	}
}

// remove reverses add for one query's footprint.
func (s *replicaSet) remove(types []string, exact bool) {
	if !exact {
		s.wild--
	}
	for _, tp := range types {
		if s.refs[tp]--; s.refs[tp] <= 0 {
			delete(s.refs, tp)
		}
	}
}

// newlyNeeded reports the backfill entitlement a registration with the
// given footprint adds relative to the current refcounts, BEFORE add
// folds it in: needAll (an inexact footprint going universal) with the
// types already held, or the exact list of added types. Nothing is
// needed when the set is already universal. Router.admit stamps every
// registration with it, and both transports read the backfill through
// EdgeLog.missed.
func (s *replicaSet) newlyNeeded(types []string, exact bool) (needAll bool, held, added []string) {
	switch {
	case s.universal():
		return false, nil, nil
	case !exact:
		return true, s.typeNames(), nil
	default:
		for _, tp := range types {
			if !s.has(tp) {
				added = append(added, tp)
			}
		}
		return false, nil, added
	}
}

// typeNames returns the sorted type names currently referenced.
func (s *replicaSet) typeNames() []string {
	out := make([]string, 0, len(s.refs))
	for tp := range s.refs {
		out = append(out, tp)
	}
	sort.Strings(out)
	return out
}
