// Package dshard is the engine side of an internal/shard slot — the
// slot engine (Slot) and the Host that applies a slot's messages to it
// — and the wire protocol that carries those messages to a remote
// shard worker (Server) across a process boundary.
//
// Topology. A shard.Router partitions registered continuous queries
// across shard slots. Every slot runs the same loop and writes the
// same typed messages (Edges, Register, ...): to an in-process Host, or
// over a TCP connection (Conn) to a remote shard worker process
// (cmd/sgshard), whose Server runs a Host per connection. The router
// keeps everything that needs the global stream view — arrival
// sequencing, the edge-type gates, the shared EdgeLog and the window
// statistics that pin each registration's decomposition — while the
// host owns a single-writer core.MultiEngine over a private (optionally
// edge-type-filtered) graph replica.
//
// Protocol. Frames are length-prefixed: a 4-byte big-endian payload
// length, then the payload, whose first byte is the frame type (the
// Frame* constants). Integers inside payloads are varints (unsigned for
// sequence numbers and counts, zigzag for timestamps and gauges). After
// the hello / hello-ack version check names, labels and types are
// interned in a per-connection, per-direction string dictionary and
// timestamps are deltas within each frame's edge list; free text and
// images are length-prefixed bytes (snapshot images and the edlog
// record codec never use the dictionary: they outlive connections).
// The host answers every client frame, in order, with zero or more
// match frames, a snapshot frame for a checkpoint or a handover, and
// exactly one done frame (the engine's error, the slot's gauges). The
// router treats a frame's matches as delivered only when its done
// arrives, so a connection that dies mid-frame loses nothing and
// duplicates nothing: the router replays it on a new connection, with
// the frames already delivered marked suppress. See docs/DISTRIBUTED.md
// for the frame table and the reconnect state machine.
package dshard

import (
	"streamgraph/internal/core"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// ProtocolVersion is the one wire protocol version, carried by the
// hello frame. The client opens with it and expects a hello-ack; the
// server refuses a hello of any other version (v1, which had no
// handshake, v2, whose hello carried an eviction cadence, v3, whose
// done frame carried three replica gauges instead of a slot Report, v4,
// whose worker answers a migrate unregister without the query's state,
// and v5, which negotiated the encoding and could flate-compress
// frames, included).
const ProtocolVersion = 6

// MaxFrame bounds a single frame's payload size (a corrupt or
// malicious length prefix must not allocate unboundedly).
const MaxFrame = 64 << 20

// maxImage bounds the image one frame carries (a checkpoint's snapshot,
// a handed-over query state), leaving room for the frame's header.
const maxImage = MaxFrame - 32

// Frame type bytes. Client→server types have the high bit clear,
// server→client types have it set.
const (
	// FrameHello opens a connection (client→server).
	FrameHello byte = 0x01
	// FrameEdges carries one admitted edge batch (client→server).
	FrameEdges byte = 0x02
	// FrameRegister registers a query at a stream position (client→server).
	FrameRegister byte = 0x03
	// FrameUnregister removes a query at a stream position (client→server).
	FrameUnregister byte = 0x04
	// FrameClose ends the stream and drains the worker (client→server).
	FrameClose byte = 0x05
	// FrameBackfill carries a continuation chunk of a register frame's
	// backfill payload (client→server). Large backfills are split
	// across frames so no payload approaches MaxFrame; the chunks
	// follow their register frame back-to-back, before any other
	// traffic.
	FrameBackfill byte = 0x06
	// FrameMatch streams one completed match (server→client).
	FrameMatch byte = 0x81
	// FrameDone acknowledges one client frame (server→client).
	FrameDone byte = 0x82
	// FrameHelloAck accepts a hello (server→client).
	FrameHelloAck byte = 0x84
)

// Hello is the connection-opening frame: the engine configuration the
// remote worker builds its fresh core.MultiEngine from.
type Hello struct {
	// Version is ProtocolVersion; the server refuses anything else.
	Version uint64
	// Slot is the router-side slot index (diagnostics only).
	Slot int
	// Window is tW shared by every registered query (0 = unwindowed).
	Window int64
	// UniversalFilter selects the initial replica filter: true admits
	// every edge type (full-replica topologies: FullReplicas, Ordered);
	// false starts the engine as an empty filtered replica that each
	// register frame widens.
	UniversalFilter bool
}

// HelloAck is the server's acceptance of a hello. It is the first and
// only frame a server sends before its normal match/done traffic.
type HelloAck struct {
	// Version echoes the server's protocol version.
	Version uint64
}

// Edges is one admitted batch of stream edges.
type Edges struct {
	// Frame is the per-connection frame id the done frame echoes.
	Frame uint64
	// Suppress marks a replayed frame whose matches were already
	// delivered on an earlier connection: the worker processes the
	// batch fully (graph, statistics, partial-match state) but emits
	// no match frames for it.
	Suppress bool
	// BaseSeq is the router-assigned arrival sequence of Edges[0];
	// arrival seqs are global across the whole topology.
	BaseSeq uint64
	// Edges holds the batch in arrival order.
	Edges []stream.Edge
}

// Register installs one continuous query on the remote worker at a
// definite stream position.
type Register struct {
	// Frame / Suppress as in Edges; Suppress applies to the matches of
	// the flush barrier this control point triggers.
	Frame    uint64
	Suppress bool
	// Name is the unique registered query name.
	Name string
	// Seq is the stream position of the registration: the arrival seq
	// of the next edge after it.
	Seq uint64
	// Rank is the global registration rank, echoed on match frames;
	// ordered mode sorts simultaneous matches by it.
	Rank int
	// Query is the pattern in the textual query format (query.Parse).
	Query string
	// Graph, when non-nil, is the pattern itself, handed to an in-process
	// Host instead of being parsed from Query: a query whose names the
	// text form would not preserve registers in-process all the same.
	// Never encoded.
	Graph *query.Graph
	// Strategy is the core.Strategy ordinal.
	Strategy int
	// HasLeaves reports whether Leaves, the SJ-tree decomposition (query
	// edge indices per leaf), is pinned: the router pins every
	// decomposing strategy's from the whole stream's window, of which a
	// slot holds only a slice.
	HasLeaves bool
	Leaves    [][]int
	// MaxMatches, MaxWork and MaxSteps forward the engine's search
	// limits (core.Config.MaxMatchesPerSearch / MaxWorkPerEdge /
	// MaxStepsPerSearch).
	MaxMatches int
	MaxWork    int64
	MaxSteps   int64
	// FilterUniversal / FilterTypes is the replica filter AFTER this
	// registration widens it, computed router-side from the slot's
	// footprint refcounts.
	FilterUniversal bool
	FilterTypes     []string
	// Backfill is the in-window past of the newly needed edge types,
	// replayed from the router's EdgeLog; the worker admits them
	// without searching (core.MultiEngine.Backfill semantics).
	Backfill []stream.Edge
	// State, when non-empty, is the image a source slot's HandOver took
	// of a query migrating onto this worker (the snapshot frame that
	// answered its migrate unregister): the worker registers the query
	// and configuration it holds, then transplants its stored partial
	// matches and queued retrospective work on top of the backfill.
	// Query and the configuration fields are then ignored. An image that
	// does not decode is refused with a done error. Encoded as a
	// trailing field, absent on other frames.
	State []byte
}

// BackfillChunk is a continuation of a register frame's backfill: the
// worker admits the edges (no search) into the replica exactly as it
// did the register frame's own Backfill slice. A chunk for a query
// that is not registered (its register frame errored) is ignored.
type BackfillChunk struct {
	// Frame is the per-connection frame id the done frame echoes.
	Frame uint64
	// Name is the registered query whose backfill this continues.
	Name string
	// Edges holds the chunk in arrival order.
	Edges []stream.Edge
}

// Unregister removes one query at a definite stream position.
type Unregister struct {
	// Frame / Suppress as in Register.
	Frame    uint64
	Suppress bool
	// Name is the registered query name.
	Name string
	// Seq is the stream position of the removal.
	Seq uint64
	// FilterUniversal / FilterTypes is the replica filter AFTER the
	// removal narrows it; the worker trims edges outside it.
	FilterUniversal bool
	FilterTypes     []string
	// Migrate marks a migration's source-side removal (Slot.HandOver):
	// the worker answers with the query's state in a snapshot frame
	// tagged with this frame's id, before the done. Encoded as a
	// trailing field, absent on plain removals.
	Migrate bool
}

// CloseStream ends the stream: the worker runs its final flush barrier
// at FinalSeq, acknowledges, and the connection winds down.
type CloseStream struct {
	// Frame is the frame id the done frame echoes.
	Frame uint64
	// FinalSeq is the global stream position at close.
	FinalSeq uint64
}

// Binding is one resolved vertex of a match (query vertex name → data
// vertex name), both resolved to names so the match stays valid after
// the remote replica evicts the edges. It is the engine's own portable
// form, so a resolved match crosses worker, wire and router without
// being copied field by field.
type Binding = core.PortableBinding

// MatchEdge is one resolved edge of a match: the query edge index, the
// resolved endpoint and type names, and the edge timestamp.
type MatchEdge = core.PortableMatchEdge

// Match is one completed match streamed back to the router, resolved
// into portable name-based form on the remote worker while the bound
// edges are certainly still live in its replica.
type Match struct {
	// Frame is the client frame this match belongs to; the router
	// buffers matches until the frame's done arrives (atomic,
	// exactly-once delivery across reconnects).
	Frame uint64
	// Query and Rank identify the registration; Seq is the arrival
	// seq of the edge (or flush barrier) that completed the match.
	Query string
	Rank  int
	Seq   uint64
	// FirstTS and LastTS delimit τ(g), the match's timespan.
	FirstTS, LastTS int64
	// Bindings and Edges resolve the match.
	Bindings []Binding
	Edges    []MatchEdge
}

// Done acknowledges one client frame after all of its match frames.
type Done struct {
	// Frame echoes the acknowledged client frame.
	Frame uint64
	// Err is the engine error for register frames ("" = ok).
	Err string
	// Report is the slot's gauges after the frame (Slot.Report): what
	// the router publishes for the slot, in-process or remote alike.
	Report Report
}
