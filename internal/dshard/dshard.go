// Package dshard defines the distributed shard runtime's wire
// protocol and hosts the remote shard worker: the process-boundary
// form of one internal/shard slot.
//
// Topology. A shard.Router partitions registered continuous queries
// across shard slots. A slot is either a local worker goroutine (as in
// the single-process runtime) or a TCP connection to a remote shard
// worker process (cmd/sgshard) speaking this protocol. The router side
// of the split keeps everything that needs the global stream view —
// arrival sequencing, the edge-type gates, the shared EdgeLog and the
// window statistics computed from it that pin each registration's
// decomposition — while the remote side owns exactly what a local
// worker's goroutine owns: a single-writer core.MultiEngine over a
// private (optionally edge-type-filtered) graph replica.
//
// Protocol. Frames are length-prefixed: a 4-byte big-endian payload
// length, then the payload, whose first byte is the frame type. All
// integers inside payloads are varints (unsigned for sequence numbers
// and counts, zigzag for timestamps and gauges); strings are
// length-prefixed byte strings. Protocol v2 — negotiated per
// connection by the hello/hello-ack capability exchange — additionally
// interns strings in a per-connection, per-direction dictionary
// (CapDict: first occurrence as id+bytes, later occurrences as a
// varint reference), delta-encodes timestamps within each frame's edge
// list, and flate-compresses large frames (CapCompress: the high bit
// of the length header marks a compressed payload). A connection that
// negotiates nothing speaks the plain encoding; the handshake frames,
// snapshot images and the edlog record codec always use it, the last
// two because they outlive connections. The client (router) sends:
//
//	hello       protocol version, slot id, window, the initial
//	            replica-filter mode and the offered capability bits
//	edges       one admitted batch: base arrival seq + edges
//	register    a query at a stream position: name, rank, query text,
//	            the decomposition pinned router-side, search limits,
//	            the post-registration replica filter, and the backfill
//	            edges replayed from the router's EdgeLog
//	unregister  a query at a stream position + the narrowed filter
//	close       end of stream: final seq for the last flush barrier
//
// The server (remote worker) answers every client frame, in order,
// with zero or more match frames followed by exactly one done frame
// (engine error for registers, the slot's gauges piggybacked). That
// strict request/stream/done discipline is what makes recovery simple:
// the router treats a frame's matches as delivered only when its done
// arrives, so a connection that dies mid-frame loses nothing and
// duplicates nothing — the frame is simply replayed.
//
// Replay. The remote worker keeps no durable state: on every new
// connection the router rebuilds it by replaying its registration
// control events interleaved with the shared EdgeLog in arrival-seq
// order, marking already-delivered frames with the suppress flag
// (processed for state, matches discarded). See docs/DISTRIBUTED.md
// for the full reconnect state machine and its invariants.
package dshard

import (
	"streamgraph/internal/core"
	"streamgraph/internal/stream"
)

// ProtocolVersion is the one wire protocol version, carried by the
// hello frame. The client opens with it plus its capability bits and
// expects a hello-ack granting the intersection; the server refuses a
// hello of any other version (v1, which had no handshake, v2, whose
// hello carried an eviction cadence, and v3, whose done frame carried
// three replica gauges instead of a slot Report, included).
const ProtocolVersion = 4

// Capability bits negotiated in the v2 hello/hello-ack exchange. The
// client offers a set, the server answers with the subset it grants,
// and both sides apply exactly the granted set — to both directions of
// the connection.
const (
	// CapDict enables the per-connection string dictionary and
	// within-frame delta timestamps on edge/backfill/match frames.
	CapDict uint64 = 1 << 0
	// CapCompress enables per-frame flate compression of large frames
	// (the high bit of the length header marks a compressed frame).
	CapCompress uint64 = 1 << 1
)

// MaxFrame bounds a single frame's payload size (a corrupt or
// malicious length prefix must not allocate unboundedly).
const MaxFrame = 64 << 20

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
	// FrameHelloAck answers a hello with the granted capability bits
	// (server→client).
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
	// Caps is the capability set the client offers (Cap* bits); the
	// server grants the intersection with its own in the hello-ack.
	Caps uint64
}

// HelloAck is the server's answer to a hello: the capability set in
// force, in both directions, for the rest of the connection. It is the
// first and only frame a server sends before its normal match/done
// traffic.
type HelloAck struct {
	// Version echoes the server's protocol version.
	Version uint64
	// Caps is the granted capability set (a subset of the hello's).
	Caps uint64
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
	// Strategy is the core.Strategy ordinal.
	Strategy int
	// HasLeaves reports whether Leaves carries a pinned decomposition.
	// The router pins every decomposition-based strategy against the
	// statistics of the whole stream's window — the remote engine's own
	// graph holds only this shard's slice of it and must never drive a
	// decomposition.
	HasLeaves bool
	// Leaves is the pinned SJ-tree decomposition (query edge indices
	// per leaf).
	Leaves [][]int
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
	// State, when non-empty, carries a persist.SaveMulti image of a
	// single-query engine being migrated onto this worker: after the
	// normal register + backfill, the worker transplants the image's
	// stored partial matches and queued retrospective work
	// into the fresh registration (a live migration's source state).
	// Encoded as a trailing field, absent on pre-migration frames.
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
	// Migrate marks a migration's source-side removal: the query's
	// pending retrospective work was already transplanted to the target
	// slot, so the worker must NOT run its flush barrier (flushing here
	// would emit the same repairs twice). Encoded as a trailing field,
	// absent on pre-migration frames.
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
	// the router publishes for a remote slot, as a local worker
	// publishes its own after each message.
	Report Report
}
