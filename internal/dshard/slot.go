package dshard

// The slot engine (Slot) and the Host that drives it: the engine side
// of one shard slot, whatever carries the slot's messages. In-process,
// the router's slot loop (internal/shard) writes them to the Host and
// resolves what it answers into blocks; over TCP, the server
// (server.go) decodes them from frames into the same Host methods and
// encodes the answers back. What a batch, a flush barrier, a
// registration, a removal and a snapshot do to the engine is decided
// here and nowhere else.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"streamgraph/internal/core"
	"streamgraph/internal/persist"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// Slot is one shard slot's engine state: a single-writer
// core.MultiEngine over a private graph replica, the registration rank
// of every query it holds, the replica's admit filter by type name, and
// the retro flush barrier. It is owned by one goroutine.
type Slot struct {
	// Eng is the slot's engine. Callers resolve matches against it and
	// read its gauges; everything that changes what it holds goes
	// through the Slot.
	Eng *core.MultiEngine

	ranks map[string]int

	// universal and types mirror the engine's replica filter; admit is
	// types as a set, for the barrier scan of every batch.
	universal bool
	types     []string
	admit     map[string]bool

	// run caches the query graph and rank of the query AppendResolved
	// last resolved a match of: matches arrive in runs of one query.
	run struct {
		name string
		q    *query.Graph
		rank int
	}

	// lastEnd is the arrival seq just past the last edge the engine
	// admitted. Pending lazy repairs were created at edge lastEnd-1, and
	// the serial schedule drains them at edge lastEnd — which a filtered
	// replica may never receive. So a control point (register,
	// unregister, close) at stream position p flushes them iff
	// lastEnd < p; at lastEnd == p the serial schedule has not drained
	// either, and they stay queued. 0 until the first admitted edge.
	lastEnd uint64
}

// Emit receives the matches a flush barrier completed, with the arrival
// seq they are reported at; the matches are the engine's (valid until
// its next result-returning call).
type Emit func(seq uint64, nms []core.NamedMatch)

// NewSlot returns an empty slot over eng. A universal slot replicates
// every edge type; otherwise the replica starts empty and each
// registration widens it.
func NewSlot(eng *core.MultiEngine, universal bool) *Slot {
	return RestoredSlot(eng, 0, make(map[string]int), universal, nil)
}

// RestoredSlot returns a slot over a recovered engine (persist.LoadMulti
// leaves the replica filter universal; the given one is applied).
func RestoredSlot(eng *core.MultiEngine, lastEnd uint64, ranks map[string]int, universal bool, types []string) *Slot {
	s := &Slot{Eng: eng, ranks: ranks, lastEnd: lastEnd}
	s.setFilter(universal, types)
	return s
}

// Rank reports the registration rank of a query the slot holds.
func (s *Slot) Rank(name string) (rank int, held bool) {
	rank, held = s.ranks[name]
	return rank, held
}

// AppendResolved resolves one of the engine's matches into portable
// name-based form onto caller-owned slices (the one core.AppendResolved
// walk, for the in-process slot and the connection alike) and reports
// its query's registration rank. The query and the rank are looked up
// once per run of matches of the same query.
func (s *Slot) AppendResolved(bindings []core.PortableBinding, edges []core.PortableMatchEdge, nm core.NamedMatch) ([]core.PortableBinding, []core.PortableMatchEdge, int) {
	if s.run.q == nil || s.run.name != nm.Query {
		s.run.name, s.run.q, s.run.rank = nm.Query, s.Eng.QueryEngine(nm.Query).Query(), s.ranks[nm.Query]
	}
	bindings, edges = core.AppendResolved(s.Eng.Graph(), s.run.q, bindings, edges, nm.Match)
	return bindings, edges, s.run.rank
}

// Ranks is the rank of every held query. The map is the slot's.
func (s *Slot) Ranks() map[string]int { return s.ranks }

// LastEnd reports the flush barrier (see Slot.lastEnd).
func (s *Slot) LastEnd() uint64 { return s.lastEnd }

// FilterWidth is the number of edge types the replica admits, -1 when
// it admits every type.
func (s *Slot) FilterWidth() int64 {
	if s.universal {
		return -1
	}
	return int64(len(s.types))
}

// Report is one slot's gauges at a message boundary, the same for
// every transport: it rides each done, in-process or over the wire, and
// the router publishes it.
type Report struct {
	// Live, Stored and Types are the replica's live edges, the edges
	// ever admitted into it, and its filter width (-1 when universal).
	Live, Stored, Types int64
	// Vertices and VertexSlots are the replica graph's named vertices
	// and the size of its VertexID space.
	Vertices, VertexSlots int64
	// Edges and Partial are the engine's edges processed and its stored
	// partial matches.
	Edges, Partial int64
	// The SJ-tree activity and match-pool totals (core.EngineCounters).
	TreeInserted, TreeDeduped, TreeEmitted, TreeEvicted int64
	PoolGets, PoolFresh                                 int64
}

// Report reads the slot's gauges.
func (s *Slot) Report() Report {
	g := s.Eng.Graph()
	st := s.Eng.Stats()
	c := s.Eng.Counters()
	return Report{
		Live: int64(g.NumEdges()), Stored: s.Eng.EdgesStored(), Types: s.FilterWidth(),
		Vertices: int64(g.LiveVertices()), VertexSlots: int64(g.NumVertices()),
		Edges: st.EdgesProcessed, Partial: st.PartialMatches,
		TreeInserted: c.TreeInserted, TreeDeduped: c.TreeDeduped, TreeEmitted: c.TreeEmitted, TreeEvicted: c.TreeEvicted,
		PoolGets: c.PoolGets, PoolFresh: c.PoolFresh,
	}
}

func (s *Slot) setFilter(universal bool, types []string) {
	s.universal, s.types, s.admit = universal, nil, nil
	if !universal {
		s.types = types
		s.admit = make(map[string]bool, len(types))
		for _, tp := range types {
			s.admit[tp] = true
		}
	}
	s.Eng.SetReplicaFilter(types, universal)
}

// ProcessEdges folds one routed batch into the engine, advancing the
// flush barrier to just past the last edge the replica admits. The
// grouped result stays aligned with the batch (see
// core.MultiEngine.ProcessBatchGrouped).
func (s *Slot) ProcessEdges(base uint64, edges []stream.Edge) [][]core.NamedMatch {
	if s.universal {
		s.lastEnd = base + uint64(len(edges))
	} else {
		for i := len(edges) - 1; i >= 0; i-- {
			if s.admit[edges[i].Type] {
				s.lastEnd = base + uint64(i) + 1
				break
			}
		}
	}
	return s.Eng.ProcessBatchGrouped(edges)
}

// Flush is the control-point barrier at stream position p: it runs the
// engine's queued retrospective repairs iff the stream has moved past
// the slot's last admitted edge (see Slot.lastEnd), reporting what they
// complete at seq lastEnd. A universal slot receives every edge, so its
// lastEnd always equals p and this never fires.
func (s *Slot) Flush(p uint64, emit Emit) {
	if s.lastEnd != 0 && s.lastEnd < p {
		emit(s.lastEnd, s.Eng.FlushPending())
	}
}

// SlotRegister is one query arriving at a slot.
type SlotRegister struct {
	Name   string
	Query  *query.Graph
	Config core.Config
	Rank   int
	// Universal and Types are the replica filter with the query on the
	// slot; Backfill is the in-window past of the types that adds,
	// admitted without searching.
	Universal bool
	Types     []string
	Backfill  []stream.Edge
	// State, when non-nil, is the image HandOver took of the query on
	// the slot it is migrating from: the query and its pinned
	// configuration come from it (Query and Config are ignored), and its
	// live state is transplanted on top of the backfilled replica.
	State []byte
}

// Register installs a query: register, widen the filter, backfill,
// transplant. A state image that does not decode and a failed
// transplant are refused alike, so the query never half-exists: on any
// error the slot holds no such query and the filter it had. The caller
// flushes first (Flush): a registration is a control point.
func (s *Slot) Register(r SlotRegister) error {
	var state *core.MultiEngine
	if r.State != nil {
		var err error
		if state, err = persist.LoadMulti(bytes.NewReader(r.State)); err != nil {
			return fmt.Errorf("dshard: migrated state of %q: %w", r.Name, err)
		}
		qe := state.QueryEngine(r.Name)
		if qe == nil {
			return fmt.Errorf("dshard: migrated state does not hold %q", r.Name)
		}
		r.Query, r.Config = qe.Query(), qe.ConfigSnapshot()
	}
	if err := s.Eng.Register(r.Name, r.Query, r.Config); err != nil {
		return err
	}
	universal, types := s.universal, s.types
	s.ranks[r.Name] = r.Rank
	s.setFilter(r.Universal, r.Types)
	s.Eng.Backfill(r.Backfill)
	if state == nil {
		return nil
	}
	_, err := persist.TransplantState(s.Eng, state, r.Name)
	if err != nil {
		s.remove(r.Name, universal, types)
	}
	return err
}

// Unregister removes a query the slot holds (anything else is a no-op)
// at stream position p: flush, unregister, narrow the filter to the
// given one, trim the edges it no longer admits.
func (s *Slot) Unregister(p uint64, name string, universal bool, types []string, emit Emit) {
	if _, held := s.ranks[name]; !held {
		return
	}
	s.Flush(p, emit)
	s.remove(name, universal, types)
}

// HandOver is a migration's source half at stream position p: the
// query's registration rank and its state, encoded (persist.ExtractQuery)
// for the slot it moves to, after which the query is removed as
// Unregister removes it. The flush comes first, as at every control
// point: the repairs the serial schedule has drained by p are emitted
// here, and the ones still pending ride the state. Every edge the slot
// took before p is in the state; every one after p belongs to the
// target. A query the slot does not hold, or a state too large for one
// frame, is an error that leaves the query where it is.
func (s *Slot) HandOver(p uint64, name string, universal bool, types []string, emit Emit) (rank int, state []byte, err error) {
	rank, held := s.ranks[name]
	if !held {
		return 0, nil, fmt.Errorf("dshard: slot does not hold query %q", name)
	}
	s.Flush(p, emit)
	if state, err = persist.ExtractQuery(s.Eng, name); err != nil {
		return 0, nil, err
	}
	if len(state) > maxImage {
		return 0, nil, fmt.Errorf("dshard: state of %q is %d bytes, over the frame limit", name, len(state))
	}
	s.remove(name, universal, types)
	return rank, state, nil
}

func (s *Slot) remove(name string, universal bool, types []string) {
	s.Eng.Unregister(name)
	delete(s.ranks, name)
	s.run.q = nil // the name may come back as another query
	s.setFilter(universal, types)
	s.Eng.TrimReplica()
}

// Image captures the slot at a message boundary. Deliberately not a
// flush point: a snapshot must not change engine state, or the restored
// run would diverge from the serial schedule. The image shares the
// slot's rank map and type list: encode it before the slot's next
// operation.
func (s *Slot) Image() (SnapshotImage, error) {
	var buf bytes.Buffer
	if err := persist.SaveMulti(&buf, s.Eng); err != nil {
		return SnapshotImage{}, err
	}
	return SnapshotImage{LastEnd: s.lastEnd, Universal: s.universal, Types: s.types, Ranks: s.ranks, Engine: buf.Bytes()}, nil
}

// SnapshotImage is the decoded form of a worker snapshot: the slot
// header plus the opaque persist.SaveMulti engine image.
type SnapshotImage struct {
	LastEnd   uint64
	Universal bool
	Types     []string
	Ranks     map[string]int
	Engine    []byte
}

// Encode serializes the image into the snapshot wire form: the header
// (types and ranks sorted, so equal slots encode equal) followed by the
// engine image.
func (si SnapshotImage) Encode() []byte {
	b := binary.AppendUvarint(nil, si.LastEnd)
	b = appendBool(b, si.Universal)
	types := append([]string(nil), si.Types...)
	sort.Strings(types)
	b = appendStrings(b, types)
	names := make([]string, 0, len(si.Ranks))
	for name := range si.Ranks {
		names = append(names, name)
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = appendString(b, name)
		b = binary.AppendUvarint(b, uint64(si.Ranks[name]))
	}
	return append(b, si.Engine...)
}

// DecodeSnapshotImage parses a snapshot frame's payload; the engine
// image is the undecoded remainder.
func DecodeSnapshotImage(data []byte) (SnapshotImage, error) {
	d := dec{b: data}
	si := SnapshotImage{LastEnd: d.uvarint(), Universal: d.bool_(), Types: d.strings()}
	n := d.count("ranks", 2)
	si.Ranks = make(map[string]int, n)
	for i := 0; i < n && d.err == nil; i++ {
		name := d.string_()
		si.Ranks[name] = int(d.uvarint())
	}
	if d.err != nil {
		return SnapshotImage{}, d.err
	}
	si.Engine = d.b
	return si, nil
}

// Slot rebuilds the slot the image was taken of.
func (si SnapshotImage) Slot() (*Slot, error) {
	eng, err := persist.LoadMulti(bytes.NewReader(si.Engine))
	if err != nil {
		return nil, err
	}
	return RestoredSlot(eng, si.LastEnd, si.Ranks, si.Universal, si.Types), nil
}

// Replier takes a Host's answers. Every message written to the Host is
// answered, before the write returns, by zero or more Matches or
// Flushed calls, a Snapshot for a checkpoint or a handover, and exactly
// one Done; an error from Snapshot or Done is returned by the write. A
// suppressed frame's matches are not passed on. The matches are the
// engine's: resolve them (Slot.AppendResolved) while they are valid.
type Replier interface {
	// Matches takes what one edge of a batch completed at arrival seq,
	// once per edge, empty or not; valid until the frame's Done.
	Matches(frame, seq uint64, nms []core.NamedMatch)
	// Flushed takes what a control point's flush barrier completed at
	// seq; valid only until it returns, since the host goes on to change
	// the slot (register, remove, trim).
	Flushed(frame, seq uint64, nms []core.NamedMatch)
	// Snapshot takes a checkpoint's image or a handed-over query's
	// state, which the Replier may keep.
	Snapshot(Snapshot) error
	// Done ends one frame's answer.
	Done(Done) error
}

// Host applies one slot's messages to its Slot, in order, and answers
// each through its Replier. It is owned by one goroutine.
type Host struct {
	slot *Slot
	rep  Replier

	// streamed flips at the first state-bearing message; a restore is
	// only legal before it.
	streamed bool
}

// NewHost returns a host driving slot. A restore replaces the slot's
// state in place: the caller's pointer stays the slot driven.
func NewHost(slot *Slot, rep Replier) *Host { return &Host{slot: slot, rep: rep} }

// flush starts answering a control message: its flush barrier's matches
// go to Flushed, unless the message is suppressed.
func (h *Host) flush(frame uint64, suppress bool) Emit {
	h.streamed = true
	return func(seq uint64, nms []core.NamedMatch) {
		if !suppress {
			h.rep.Flushed(frame, seq, nms)
		}
	}
}

func (h *Host) done(frame uint64, engErr error) error {
	d := Done{Frame: frame, Report: h.slot.Report()}
	if engErr != nil {
		d.Err = engErr.Error()
	}
	return h.rep.Done(d)
}

// WriteEdges folds one admitted batch into the slot.
func (h *Host) WriteEdges(m Edges) error {
	h.streamed = true
	for i, named := range h.slot.ProcessEdges(m.BaseSeq, m.Edges) {
		if !m.Suppress {
			h.rep.Matches(m.Frame, m.BaseSeq+uint64(i), named)
		}
	}
	return h.done(m.Frame, nil)
}

// WriteRegister registers a query at its stream position; the engine's
// refusal is the done's error.
func (h *Host) WriteRegister(m Register) error {
	h.slot.Flush(m.Seq, h.flush(m.Frame, m.Suppress))
	q := m.Graph
	if q == nil && len(m.State) == 0 { // a migrating query comes with its state
		var err error
		if q, err = query.Parse(m.Query); err != nil {
			return h.done(m.Frame, err)
		}
	}
	r := SlotRegister{
		Name: m.Name, Query: q, Rank: m.Rank, State: m.State,
		Config: core.Config{
			Strategy:            core.Strategy(m.Strategy),
			MaxMatchesPerSearch: m.MaxMatches,
			MaxWorkPerEdge:      m.MaxWork,
			MaxStepsPerSearch:   m.MaxSteps,
		},
		Universal: m.FilterUniversal, Types: m.FilterTypes, Backfill: m.Backfill,
	}
	if m.HasLeaves {
		r.Config.Leaves = m.Leaves
	}
	return h.done(m.Frame, h.slot.Register(r))
}

// WriteBackfill admits a continuation of a register's backfill, unless
// the register was refused.
func (h *Host) WriteBackfill(m BackfillChunk) error {
	h.streamed = true
	if _, held := h.slot.Rank(m.Name); held {
		h.slot.Eng.Backfill(m.Edges)
	}
	return h.done(m.Frame, nil)
}

// WriteUnregister removes a query; a migrate-flagged removal hands its
// state over (Slot.HandOver) as a Snapshot before the done, or is
// refused with the query still held.
func (h *Host) WriteUnregister(m Unregister) error {
	emit := h.flush(m.Frame, m.Suppress)
	if !m.Migrate {
		h.slot.Unregister(m.Seq, m.Name, m.FilterUniversal, m.FilterTypes, emit)
		return h.done(m.Frame, nil)
	}
	_, state, err := h.slot.HandOver(m.Seq, m.Name, m.FilterUniversal, m.FilterTypes, emit)
	if err == nil {
		if err := h.rep.Snapshot(Snapshot{Frame: m.Frame, Data: state}); err != nil {
			return err
		}
	}
	return h.done(m.Frame, err)
}

// WriteCheckpoint answers with an image of the slot before the done,
// best-effort: an image one frame cannot carry (or SaveMulti refuses)
// is not sent, and the router keeps the snapshot it has. Not a stream
// position: a restore stays legal.
func (h *Host) WriteCheckpoint(m Checkpoint) error {
	if img, err := h.slot.Image(); err == nil {
		if data := img.Encode(); len(data) <= maxImage {
			if err := h.rep.Snapshot(Snapshot{Frame: m.Frame, Data: data}); err != nil {
				return err
			}
		}
	}
	return h.done(m.Frame, nil)
}

// WriteRestore replaces the slot's state with a captured image; only
// legal first, before the log tail replays. A restore that fails ends
// the stream rather than answer a done the router would take as
// restored; it rebuilds from the log alone instead.
func (h *Host) WriteRestore(m Restore) error {
	if h.streamed {
		return fmt.Errorf("restore frame after stream traffic")
	}
	h.streamed = true
	img, err := DecodeSnapshotImage(m.Data)
	if err != nil {
		return err
	}
	slot, err := img.Slot()
	if err != nil {
		return fmt.Errorf("restore snapshot: %w", err)
	}
	*h.slot = *slot
	return h.done(m.Frame, nil)
}

// WriteCloseStream runs the final flush barrier and acknowledges: the
// stream is over.
func (h *Host) WriteCloseStream(m CloseStream) error {
	h.slot.Flush(m.FinalSeq, h.flush(m.Frame, false))
	return h.done(m.Frame, nil)
}
