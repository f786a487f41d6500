// Package core implements the continuous pattern detection engine of
// Choudhury et al. (EDBT 2015): the dynamic graph search loop
// (Algorithm 1), the Lazy Search extension (Algorithm 3) with its
// per-vertex, per-leaf enablement stamps that expire with the window
// and its retrospective neighborhood repair, the four
// selectivity-driven strategies of Section 6.4 (Single, SingleLazy,
// Path, PathLazy), the non-incremental VF2 baseline, and an anchored
// incremental baseline (IncIso, after Fan et al. as used in the
// authors' prior work).
//
// A standalone Engine is a MultiEngine of one: New builds a private
// MultiEngine, the host, which owns the windowed data graph, and
// registers the query on it. Feed the engine stream edges with
// ProcessEdge and it returns the incremental set of complete matches
// f(Gd, Gq, E_{k+1}) = M(G^{k+1}_d) − M(G^k_d). ProcessBatch (batch.go)
// ingests many edges at once — one amortized eviction pass, then the
// same per-edge search — with per-edge results identical to the serial
// loop. Both run the host's ingest step, then the engine's search.
//
// The graph holds only what the query can match: the host's replica
// filter (SetReplicaFilter) is the query's footprint
// (query.Graph.TypeFootprint; every type when an edge type is a
// wildcard), and an edge of another type is dropped before it touches
// the graph: the matchers respect edge types, so no strategy could bind
// it. All a standalone engine adds to its host's step is that a dropped
// edge still counts as processed and still raises the largest timestamp
// offered, which the sweep clock reads (sweepClock), so sweeps cut where
// they would over the whole stream and the SJ-Tree evolves as in an
// engine that stored every edge.
//
// # Match lifetimes
//
// The matches an engine returns are the engine's, and they have one home:
// the engine's result slab (Engine.res, an sjtree.Results) — a list of
// match headers and two slabs of vertex and edge bindings the headers are
// windows of. A join that completes a match at the SJ-Tree's root writes
// the union of its two sides straight into the slab
// (sjtree.Tree.InsertInto); the VF2 and IncIso baselines, which have no
// tree, copy each match their search streams out into it. ProcessEdge,
// ProcessBatch and FlushPending return the slab's list, or rows cut from
// it; the slices and the bindings behind each iso.Match stay valid until
// the next of those three calls on the same engine, and no longer. That
// call begins with Reset, which truncates the headers and both slabs, so
// its matches are written where the last call's were and a query that
// emits many matches per edge allocates none of them, however large a
// burst. MultiEngine passes the contract through per query engine (its
// own result slices are arena-backed with the same lifetime, see
// batchArena). A caller that keeps a match resolves it to names
// (AppendResolved, Engine.Explain) or Clones it before its next call; a
// MultiEngine.ResolveMatch result is valid until its next call, and the
// streamgraph facade resolves each call's matches into slabs it hands
// out for good.
//
// The slab is window-sized: a burst grows it, and the first Reset after
// a window sweep cuts it back to twice the largest call since the sweep
// before when it is more than eight times that (sjtree.Results). The
// sweep only marks the slab; nothing shrinks under a caller's matches.
//
// A complete match never passes through the SJ-Tree's match pool. The
// pool holds matches in flight below the root only: the leaf candidates
// of the call (InsertInto hands each one's arrays back before it
// returns) and the tree's interior join outputs. A stored partial match
// is not in it and is not an iso.Match: the tree keeps its own copy as a
// record in the node's slab, and what onStored and Tree.EachStored are
// handed is a view into that slab, valid for the callback only —
// onStored reads the vertices and keeps nothing. See
// sjtree.Tree.InsertInto, the sjtree package comment and iso.MatchPool.
package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"streamgraph/internal/decompose"
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/sjtree"
	"streamgraph/internal/stream"
)

// Strategy selects how the engine decomposes and executes the query.
type Strategy int

const (
	// StrategySingle is the 1-edge decomposition tracking all matching
	// subgraphs ("Single" in the paper's plots).
	StrategySingle Strategy = iota
	// StrategySingleLazy is the 1-edge decomposition with Lazy Search.
	StrategySingleLazy
	// StrategyPath is the 2-edge path decomposition tracking everything.
	StrategyPath
	// StrategyPathLazy is the 2-edge path decomposition with Lazy Search.
	StrategyPathLazy
	// StrategyVF2 is the non-incremental baseline: a full VF2-style
	// subgraph isomorphism search over the current graph on every edge.
	StrategyVF2
	// StrategyIncIso is the incremental baseline without an SJ-Tree:
	// a full-query search anchored at every new edge.
	StrategyIncIso
	// StrategyAuto picks SingleLazy or PathLazy by the Relative
	// Selectivity rule of Section 6.5.
	StrategyAuto
)

var strategyNames = map[Strategy]string{
	StrategySingle:     "Single",
	StrategySingleLazy: "SingleLazy",
	StrategyPath:       "Path",
	StrategyPathLazy:   "PathLazy",
	StrategyVF2:        "VF2",
	StrategyIncIso:     "IncIso",
	StrategyAuto:       "Auto",
}

// String renders the strategy's canonical name (as used in the
// paper's plots and the CLI flags).
func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// MarshalJSON renders the strategy by name (the String form), so
// machine-readable benchmark output stays stable if the enum is ever
// reordered.
func (s Strategy) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Lazy reports whether the strategy gates leaf searches by Lazy Search.
func (s Strategy) Lazy() bool {
	return s == StrategySingleLazy || s == StrategyPathLazy || s == StrategyAuto
}

// Decomposes reports whether the strategy runs on an SJ-Tree and so
// needs a decomposition: Config.Leaves, or statistics to derive one.
// The two baselines search the whole query and need neither.
func (s Strategy) Decomposes() bool { return s != StrategyVF2 && s != StrategyIncIso }

// Config parameterizes an Engine.
type Config struct {
	// Strategy to execute. StrategyAuto requires Stats.
	Strategy Strategy

	// Window is tW: only matches with τ(g) < Window are reported, and
	// edges/partial matches older than the window are evicted. Zero
	// disables windowing.
	Window int64

	// Stats supplies the subgraph distributional statistics used to
	// order the decomposition. Required for all decomposition-based
	// strategies; ignored by VF2 and IncIso.
	Stats *selectivity.Collector

	// Leaves overrides the computed decomposition (each entry lists
	// query edge indices). Used by ablation experiments and by engines
	// restored from an ASCII SJ-Tree file.
	Leaves [][]int

	// MaxMatchesPerSearch caps the matches produced by one leaf/anchor
	// search (a safety valve for pathological queries; 0 = unlimited).
	MaxMatchesPerSearch int

	// MaxWorkPerEdge bounds the SJ-Tree work (join attempts + stored
	// inserts) a single edge arrival may trigger; excess cascades are
	// load-shed and counted in Stats.Tree.Shed. Unlabeled queries over
	// hub vertices can produce combinatorial intermediate products that
	// no strategy tracks at stream rate; real deployments shed. 0
	// disables the bound (exact semantics).
	MaxWorkPerEdge int64

	// MaxStepsPerSearch bounds the backtracking steps of one anchored
	// subgraph-isomorphism attempt (0 = unlimited; load shedding when
	// exceeded).
	MaxStepsPerSearch int64
}

// Stats aggregates the engine's work counters.
type Stats struct {
	EdgesProcessed  int64
	LeafSearches    int64 // anchored subgraph-iso invocations
	LeafMatches     int64 // matches produced by anchored searches
	RetroSearches   int64 // retrospective (enable-time) searches
	RetroMatches    int64
	CompleteMatches int64
	IsoSteps        int64 // recursive extension steps inside the matcher
	GraphEvicted    int64
	// VerticesReclaimed counts the vertex slots window sweeps have
	// recycled in a standalone engine's graph (0, as GraphEvicted, for a
	// query engine under a shared MultiEngine; read
	// MultiEngine.Graph().VerticesReclaimed there).
	VerticesReclaimed int64
	Tree              sjtree.Stats
}

// Engine runs one continuous query over the graph of the MultiEngine it
// is registered on, a private one for a standalone engine (New).
type Engine struct {
	q   *query.Graph
	cfg Config

	// host is a standalone engine's MultiEngine, nil under a shared one.
	host    *MultiEngine
	g       *graph.Graph
	matcher *iso.Matcher
	tree    *sjtree.Tree // nil for VF2 / IncIso

	// Lazy Search state. until[v*gated+l-1] is the timestamp until which
	// leaf l's search is enabled around vertex v, for the gated leaves
	// l = 1..gated (leaf 0 is always searched); math.MinInt64 means never
	// enabled. It is dense over the graph's VertexID space, which the
	// window bounds. bitSet lists the vertices with a stamp set — what a
	// sweep walks and a snapshot saves — and hiTS is the highest
	// timestamp the engine has searched, what decides whether a raised
	// stamp had lapsed (see onStored).
	lazy     bool
	gated    int
	until    []int64
	bitSet   []graph.VertexID
	hiTS     int64
	allEdges []int

	pending [][]retroItem // per-leaf retrospective work for the current edge
	curEdge graph.EdgeID
	curTS   int64 // the timestamp of the edge being searched
	// res holds every complete match of the current call, in emission
	// order: res.Matches is what ProcessEdge and FlushPending return and
	// what the rows ProcessBatch returns are cut from. Root joins and the
	// baselines write straight into its slabs, and every result-returning
	// call starts with res.Reset (see "Match lifetimes" in the package
	// comment).
	res sjtree.Results

	// Retro-drain dedup state, reused across drains so the hot path
	// stays allocation-free: the edge bindings of the matches a drain
	// has produced are recorded back to back in retroBuf for probe-time
	// verification (a collision can never suppress a distinct match —
	// the same verified scheme as the SJ-Tree's dedup tables), retroSeen
	// maps a 64-bit signature hash to the newest record with it and
	// retroLink chains each record to the next older one, both as offset
	// into retroBuf plus one (0 ends a chain). retroCollide is the test
	// hook that forces every signature to hash equal.
	retroSeen    map[uint64]int32
	retroLink    []int32
	retroBuf     []graph.EdgeID
	retroCollide bool

	// Streaming-merge state for the leaf search: mergeEmit (the anchored
	// pass), retroEmit (the retrospective repair) and baseEmit (the
	// baselines' whole-query search) are the persistent candidate
	// callbacks (allocated once, not per search), parameterized through
	// the cur* fields below.
	mergeEmit  func(iso.Match) bool
	retroEmit  func(iso.Match) bool
	baseEmit   func(iso.Match) bool
	curLeaf    int
	curRequire bool         // mergeEmit: gate candidates on touching an enabled vertex
	curExclude graph.EdgeID // retroEmit: the current edge, whose matches the anchored pass finds; iso.NoEdge excludes nothing
	curFloor   int64        // retroEmit: the current repair's floor (see retroItem)
	curFound   int          // candidates emitted by the current search

	chosenKind decompose.Kind
	relSel     float64

	budget sjtree.WorkBudget

	// arena backs the batch path's scratch and result slices, recycled
	// per batch generation (see batchArena).
	arena batchArena
	stats Stats
}

// retroItem is one queued repair: search the leaf around v for the
// matches that arrived while v's stamp was below them — before it was
// first set, or since it lapsed. floor is the stamp v had before the
// raise that queued the item: a match whose latest edge is older was
// stored when it arrived or found by an earlier repair, so the repair
// skips it.
type retroItem struct {
	v     graph.VertexID
	floor int64
}

// New builds a standalone engine for query q (see Solo). A tree
// strategy needs Config.Stats or Config.Leaves.
func New(q *query.Graph, cfg Config) (*Engine, error) {
	m := NewMulti(MultiConfig{Window: cfg.Window})
	if _, err := m.register("standalone", q, cfg); err != nil {
		return nil, err
	}
	return m.Solo()
}

// newEngine is the one engine constructor: query q's engine over g.
func newEngine(g *graph.Graph, q *query.Graph, cfg Config) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{q: q, cfg: cfg, g: g, matcher: iso.NewMatcher(g, q), hiTS: math.MinInt64}
	e.matcher.Window = cfg.Window
	e.matcher.MaxMatches = cfg.MaxMatchesPerSearch
	e.matcher.MaxStepsPerSearch = cfg.MaxStepsPerSearch
	e.mergeEmit = func(m iso.Match) bool {
		e.curFound++
		e.stats.LeafMatches++
		if !e.curRequire || e.touchesEnabled(m, e.curLeaf) {
			e.insert(e.curLeaf, e.matcher.Retain(m))
		}
		return e.cfg.MaxMatchesPerSearch <= 0 || e.curFound < e.cfg.MaxMatchesPerSearch
	}
	e.retroEmit = func(m iso.Match) bool {
		e.curFound++
		// A leaf match leaves the slots of the other leaves' edges at
		// iso.NoEdge, so HasEdge(iso.NoEdge) holds for it: FlushPending,
		// which excludes nothing, must not ask.
		excluded := e.curExclude != iso.NoEdge && m.HasEdge(e.curExclude)
		if m.MaxTS >= e.curFloor && !excluded && !e.retroSeenBefore(m, e.tree.LeafEdges(e.curLeaf)) {
			e.stats.RetroMatches++
			e.insert(e.curLeaf, e.matcher.Retain(m))
		}
		return e.cfg.MaxMatchesPerSearch <= 0 || e.curFound < e.cfg.MaxMatchesPerSearch
	}
	e.baseEmit = func(m iso.Match) bool {
		e.curFound++
		if m.HasEdge(e.curEdge) {
			e.res.Add(m)
		}
		return e.cfg.MaxMatchesPerSearch <= 0 || e.curFound < e.cfg.MaxMatchesPerSearch
	}
	for i := range q.Edges {
		e.allEdges = append(e.allEdges, i)
	}

	if !cfg.Strategy.Decomposes() {
		return e, nil
	}

	leaves := cfg.Leaves
	var err error
	if leaves == nil {
		if leaves, e.chosenKind, e.relSel, err = Decompose(q, cfg.Strategy, cfg.Stats); err != nil {
			return nil, err
		}
	}
	e.tree, err = sjtree.Build(q, leaves, cfg.Window)
	if err != nil {
		return nil, err
	}
	// The matcher shares the tree's match pool so candidate clones reuse
	// the arrays the last Insert handed back.
	e.matcher.Pool = e.tree.Pool()
	e.lazy = cfg.Strategy.Lazy()
	e.tree.Dedup = e.lazy
	if e.lazy {
		e.gated = len(leaves) - 1
		e.pending = make([][]retroItem, len(leaves))
	}
	return e, nil
}

// Decompose derives a tree strategy's SJ-Tree leaves from statistics:
// the decomposition New pins when Config.Leaves is nil, and the one the
// shard router pins before a registration reaches a worker. kind and
// relSel are what Engine.ChosenKind and RelativeSelectivity report.
func Decompose(q *query.Graph, s Strategy, stats *selectivity.Collector) (leaves [][]int, kind decompose.Kind, relSel float64, err error) {
	if stats == nil {
		return nil, 0, 0, fmt.Errorf("core: strategy %v requires Config.Stats for decomposition", s)
	}
	switch s {
	case StrategySingle, StrategySingleLazy:
		leaves, err = decompose.SingleDecompose(q, stats)
		return leaves, decompose.Single, 0, err
	case StrategyPath, StrategyPathLazy:
		leaves, _, err = decompose.PathDecompose(q, stats)
		return leaves, decompose.Path, 0, err
	case StrategyAuto:
		return decompose.Auto(q, stats)
	default:
		return nil, 0, 0, fmt.Errorf("core: unknown strategy %v", s)
	}
}

// Graph exposes the engine's windowed data graph (read-only use).
func (e *Engine) Graph() *graph.Graph { return e.g }

// Query returns the engine's query graph.
func (e *Engine) Query() *query.Graph { return e.q }

// Tree exposes the SJ-Tree (nil for the VF2/IncIso baselines).
func (e *Engine) Tree() *sjtree.Tree { return e.tree }

// ChosenKind reports the decomposition kind in effect (meaningful for
// decomposition-based strategies).
func (e *Engine) ChosenKind() decompose.Kind { return e.chosenKind }

// RelativeSelectivity reports ξ computed by StrategyAuto (zero
// otherwise).
func (e *Engine) RelativeSelectivity() float64 { return e.relSel }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.IsoSteps = e.matcher.Calls()
	if e.host != nil {
		s.GraphEvicted += e.host.evicted
		s.VerticesReclaimed = e.g.VerticesReclaimed()
	}
	if e.tree != nil {
		s.Tree = e.tree.Stats()
	}
	return s
}

// ProcessEdge folds one stream edge into the graph and returns the new
// complete matches it produces. The returned matches reference the
// engine's query via binding arrays; see Explain for a readable form.
// The slice and the binding arrays are the engine's: they stay valid
// until the next ProcessEdge, ProcessBatch or FlushPending call on this
// engine and no longer (see "Match lifetimes" in the package comment).
// An edge whose type the query cannot bind is not stored and completes
// nothing, but counts for the sweep clock (see MultiEngine.ingest). It
// and ProcessBatch drive a standalone engine (New); a query engine on a
// shared MultiEngine is driven by that, and panics when called directly.
func (e *Engine) ProcessEdge(se stream.Edge) []iso.Match {
	e.mustStandalone("ProcessEdge")
	de, ok := e.host.ingest(se)
	if !ok {
		e.host.clock.offer(se.TS)
		e.host.maybeEvict()
		e.res.Reset()
		e.stats.EdgesProcessed++
		return nil
	}
	return e.processShared(de)
}

// mustStandalone panics, naming the MultiEngine call to make instead,
// when a query engine of a shared MultiEngine is driven directly: it has
// no host of its own to ingest into.
func (e *Engine) mustStandalone(call string) {
	if e.host == nil {
		panic("core: Engine." + call + " on a query engine of a shared MultiEngine; call MultiEngine." + call)
	}
}

// processShared runs the per-edge incremental search for an edge already
// ingested into the graph. The result is res.Matches itself (see
// ProcessEdge for its lifetime).
func (e *Engine) processShared(de graph.Edge) []iso.Match {
	e.res.Reset()
	e.searchEdge(de)
	e.stats.CompleteMatches += int64(len(e.res.Matches))
	return e.res.Matches
}

// searchEdge is the incremental search for one edge already present in
// the graph, under the engine's strategy: the one per-edge step behind
// ProcessEdge and every batch. Complete matches go to res.
func (e *Engine) searchEdge(de graph.Edge) {
	e.stats.EdgesProcessed++
	e.curEdge, e.curTS = de.ID, de.TS
	e.hiTS = max(e.hiTS, de.TS)
	if e.tree != nil && e.cfg.MaxWorkPerEdge > 0 {
		e.budget.Remaining = e.cfg.MaxWorkPerEdge
		e.tree.Budget = &e.budget
	}
	switch e.cfg.Strategy {
	case StrategyVF2:
		e.processVF2()
	case StrategyIncIso:
		e.processIncIso(de)
	default:
		e.processTree(de)
	}
}

// Run drains a stream source through the engine, invoking onMatch for
// every complete match (may be nil; a match it keeps past its return
// must be cloned). It returns the total number of matches.
func (e *Engine) Run(src stream.Source, onMatch func(stream.Edge, iso.Match)) (int64, error) {
	var total int64
	for {
		se, err := src.Next()
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
		for _, m := range e.ProcessEdge(se) {
			total++
			if onMatch != nil {
				onMatch(se, m)
			}
		}
	}
}

// processVF2 is the non-incremental baseline: re-run full subgraph
// isomorphism over the current windowed graph and report the matches
// that include the newest edge (exactly the incremental delta). Every
// match found counts against MaxMatchesPerSearch; baseEmit copies the
// ones holding the edge into res.
func (e *Engine) processVF2() {
	e.curFound = 0
	e.matcher.FindAllFunc(e.allEdges, e.baseEmit)
}

// processIncIso anchors a full-query search at the new edge; every
// match it finds holds the edge.
func (e *Engine) processIncIso(de graph.Edge) {
	e.curFound = 0
	e.matcher.FindAroundEdgeFunc(e.allEdges, de, e.baseEmit)
}

// processTree is Algorithms 1 and 3: search the SJ-Tree leaves around
// the new edge, lazily when enabled, and cascade joins. Leaf l > 0 is
// enabled around a vertex while a match stored at its sibling binds the
// vertex and could still join a leaf match at the edge's timestamp (see
// enabled), so a search stops at a vertex once every partial match that
// enabled it has aged out of the window's reach.
//
// One refinement over the paper's Algorithm 3: for a multi-edge leaf,
// a match containing the new edge can touch an enabled vertex that is
// not an endpoint of the new edge itself (the 2-edge leaf's third
// vertex). Algorithm 3's DISABLED(u) AND DISABLED(v) skip would miss
// such matches forever — the retrospective repair cannot find them
// because the edge had not arrived when the vertex was enabled. When
// both endpoints are disabled we therefore still run the (cheap,
// type-gated) anchored search but keep only matches that touch an
// enabled vertex; everything else remains lazy.
//
// Candidates stream straight out of the matcher (mergeEmit): each
// emitted match is gated first and only the survivors are cloned (from
// the tree's pool) for insertion, so a gated-off candidate costs no
// allocation at all. The search is read-only on the graph, so
// interleaving tree mutation with the enumeration cannot change which
// candidates are found.
func (e *Engine) processTree(de graph.Edge) {
	for l := 0; l < e.tree.NumLeaves(); l++ {
		requireTouch := false
		if e.lazy {
			e.drainRetro(l, de.ID)
			if l > 0 && !e.enabled(de.Src, l, de.TS) && !e.enabled(de.Dst, l, de.TS) {
				if len(e.tree.LeafEdges(l)) == 1 {
					// A 1-edge leaf match has no vertices beyond u, v.
					continue
				}
				requireTouch = true
			}
		}
		e.stats.LeafSearches++
		e.curLeaf, e.curRequire, e.curFound = l, requireTouch, 0
		e.matcher.FindAroundEdgeFunc(e.tree.LeafEdges(l), de, e.mergeEmit)
	}
}

// touchesEnabled reports whether any bound vertex of m has leaf l's
// search enabled for the edge being searched.
func (e *Engine) touchesEnabled(m iso.Match, l int) bool {
	for _, dv := range m.VertexOf {
		if dv != graph.NoVertex && e.enabled(dv, l, e.curTS) {
			return true
		}
	}
	return false
}

func (e *Engine) insert(leaf int, m iso.Match) {
	e.tree.InsertInto(leaf, m, &e.res, e.onStored)
}

// onStored implements ENABLE-SEARCH-SIBLING: a match stored at a node
// with a NextLeaf enables that leaf's search for all of the match's
// vertices until the match can no longer join (enabledUntil), raising
// each vertex's stamp to that.
//
// A raised stamp queues a retrospective search unless the old one
// still covered every timestamp searched so far (old > hiTS): then
// every leaf match around the vertex was stored when it arrived. The
// repair's floor is the old stamp. A leaf match not stored arrived at
// a timestamp at or past the stamp it met; stamps only grow, so the
// first raise after it had a lapsed old stamp no later than that
// timestamp and its repair finds the match. hiTS, not the current
// edge's timestamp, is what a lapse is judged by: after a timestamp
// regresses, a stamp above the current one can still lie below edges
// searched earlier and kept out. A stamp that is not raised queues
// nothing: a leaf match that could join m is older than the stamp,
// hence already in the tree.
func (e *Engine) onStored(n *sjtree.Node, m iso.Match) {
	if !e.lazy || n.NextLeaf < 0 {
		return
	}
	l, until := n.NextLeaf, e.enabledUntil(m)
	for _, dv := range m.VertexOf {
		if dv == graph.NoVertex {
			continue
		}
		if old := e.enable(dv, l, until); old < until && old <= e.hiTS {
			e.pending[l] = append(e.pending[l], retroItem{v: dv, floor: old})
		}
	}
}

// drainRetro performs the queued retrospective searches for leaf l:
// matches formed purely from edges that arrived before the current one
// (the current edge's matches are found by the anchored pass) and not
// older than the item's floor (see retroItem). Batch
// deduplication suppresses the same embedding reached from two anchor
// vertices; the tree's Dedup flag suppresses cross-event repeats.
// Candidates stream out of the matcher through retroEmit, as the
// anchored pass's do through mergeEmit, and the queue is truncated, not
// dropped: a stored match enables only leaves after its own
// (Node.NextLeaf), so nothing an insert here queues lands in the list
// being walked.
func (e *Engine) drainRetro(l int, exclude graph.EdgeID) {
	items := e.pending[l]
	if len(items) == 0 {
		return
	}
	e.pending[l] = items[:0]
	sub, verts := e.tree.LeafEdges(l), e.tree.LeafVerts(l)
	if e.retroSeen == nil {
		e.retroSeen = make(map[uint64]int32)
	} else {
		clear(e.retroSeen)
	}
	e.retroBuf, e.retroLink = e.retroBuf[:0], e.retroLink[:0]
	e.curLeaf, e.curExclude = l, exclude
	for _, it := range items {
		e.stats.RetroSearches++
		e.curFound, e.curFloor = 0, it.floor
		e.matcher.FindAroundVertexFunc(sub, verts, it.v, e.retroEmit)
	}
}

// retroSeenBefore reports whether a match with the same edge bindings
// was already produced in the current drain, recording the bindings
// otherwise. The signature is a 64-bit hash of the bound edge IDs
// (iso's shared FNV-1a scheme, the same one behind the SJ-Tree's
// hashed match tables); a hash hit is only a duplicate after the
// recorded bindings compare equal, so a collision costs one
// comparison, never a lost match.
func (e *Engine) retroSeenBefore(m iso.Match, sub []int) bool {
	h := iso.HashStart()
	if !e.retroCollide {
		for _, qe := range sub {
			h = iso.HashMix32(h, uint32(m.EdgeOf[qe]))
		}
	}
	for at := e.retroSeen[h]; at != 0; at = e.retroLink[int(at-1)/len(sub)] {
		rec := e.retroBuf[at-1 : int(at-1)+len(sub)]
		equal := true
		for k, qe := range sub {
			if rec[k] != m.EdgeOf[qe] {
				equal = false
				break
			}
		}
		if equal {
			return true
		}
	}
	e.retroLink = append(e.retroLink, e.retroSeen[h])
	e.retroSeen[h] = int32(len(e.retroBuf)) + 1
	for _, qe := range sub {
		e.retroBuf = append(e.retroBuf, m.EdgeOf[qe])
	}
	return false
}

// enabled reports whether leaf l's search is enabled around v for an
// edge at ts. The test is exact: a leaf match at ts can join a stored
// match h only if both fit one window, h.MinTS + Window > ts, and v's
// stamp is the largest such bound among the matches that enabled it.
func (e *Engine) enabled(v graph.VertexID, l int, ts int64) bool {
	i := int(v)*e.gated + l - 1
	return i < len(e.until) && e.until[i] > ts
}

// enabledUntil is the stamp a match stored at a gating node gives the
// vertices it binds: a leaf match at a timestamp below MinTS + Window
// can join it; without a window, any can.
func (e *Engine) enabledUntil(m iso.Match) int64 {
	if e.cfg.Window <= 0 {
		return math.MaxInt64
	}
	return m.MinTS + e.cfg.Window
}

// stamps is v's row of until: one stamp per gated leaf.
func (e *Engine) stamps(v graph.VertexID) []int64 {
	base := int(v) * e.gated
	return e.until[base : base+e.gated]
}

// enable raises v's stamp for leaf l to until, if that is later, and
// returns the stamp v had.
func (e *Engine) enable(v graph.VertexID, l int, until int64) int64 {
	if n := len(e.until); (int(v)+1)*e.gated > n {
		need := max(e.g.NumVertices(), int(v)+1) * e.gated
		e.until = slices.Grow(e.until, need-n)[:need]
		unset(e.until[n:])
	}
	s := e.stamps(v)
	old := s[l-1]
	if until > old {
		if slices.Max(s) == math.MinInt64 {
			e.bitSet = append(e.bitSet, v)
		}
		s[l-1] = until
	}
	return old
}

// unset marks every stamp of s never set.
func unset(s []int64) {
	for i := range s {
		s[i] = math.MinInt64
	}
}

// clearStamps disables every leaf around every vertex, keeping the
// table's storage.
func (e *Engine) clearStamps() {
	for _, v := range e.bitSet {
		unset(e.stamps(v))
	}
	e.bitSet = e.bitSet[:0]
}

// sweepClock is the one rule deciding when a MultiEngine sweeps,
// computed from the stream alone: the window cutoff T − Window + 1,
// where T is the largest timestamp the tier was offered, rounded down to
// a multiple of the step q = max(1, Window/32). The tier sweeps when
// that rounded cutoff passes the last one it swept at, so a sweep runs
// once per q ticks of stream time, whatever the edge rate, and the
// per-edge path holds at most q ticks past the window. The host of a
// standalone Engine is offered every edge, those its footprint drops
// included, so it sweeps at the cutoffs of an engine storing
// everything. A shared MultiEngine is offered the edges its replica
// filter admits, as a replica of the sharded runtime is offered only
// what its router does not gate away; with non-decreasing timestamps it
// has swept, at every edge it admits, where an engine offered
// everything has, since both round the same timestamp.
//
// The per-edge path checks the clock after it ingests; the batch path
// checks it once, before it ingests, from the pre-batch maximum, so its
// cutoff is never ahead of any cutoff the per-edge schedule used inside
// the batch. With non-decreasing timestamps sweeping late only costs
// memory — the window checks in the matcher and the SJ-Tree joins keep
// the match sets identical — while sweeping early could drop edges a
// per-edge run would still match. When a timestamp regresses by more
// than the window, the per-edge schedule may already have swept the old
// edge's partner (graph.ExpireBefore's slack), and the batch path may
// report strictly more window-valid matches — a superset, never fewer
// (pinned by TestBatchOutOfOrderSuperset).
type sweepClock struct {
	window int64
	seen   int64 // T: the largest timestamp offered; MinInt64 before any
	cut    int64 // the last cutoff swept at; MinInt64 before any
	// swept, when set, is called with every cutoff the clock fires at
	// (a test hook).
	swept func(cutoff int64)
}

// offer raises T to ts.
func (c *sweepClock) offer(ts int64) { c.seen = max(c.seen, ts) }

// exact is the unrounded window cutoff T − Window + 1; ok is false when
// windowing is off or nothing was offered yet.
func (c *sweepClock) exact() (cutoff int64, ok bool) {
	if c.window <= 0 || c.seen == math.MinInt64 {
		return 0, false
	}
	return c.seen - c.window + 1, true
}

// due reports the rounded cutoff and whether it passed the last one swept
// at, and if so records it as swept.
func (c *sweepClock) due() (int64, bool) {
	x, ok := c.exact()
	if !ok {
		return 0, false
	}
	q := max(1, c.window/32)
	cutoff := x - x%q
	if x%q < 0 {
		cutoff -= q
	}
	if cutoff <= c.cut {
		return 0, false
	}
	c.cut = cutoff
	if c.swept != nil {
		c.swept(cutoff)
	}
	return cutoff, true
}

// Explain renders a match as human-readable bindings.
func (e *Engine) Explain(m iso.Match) string {
	s := ""
	for qv, dv := range m.VertexOf {
		if dv == graph.NoVertex {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%s", e.q.Vertices[qv].Name, e.g.VertexName(dv))
	}
	return s
}
