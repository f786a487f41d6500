// Package core implements the continuous pattern detection engine of
// Choudhury et al. (EDBT 2015): the dynamic graph search loop
// (Algorithm 1), the Lazy Search extension (Algorithm 3) with its
// per-vertex leaf bitmap and retrospective neighborhood repair, the four
// selectivity-driven strategies of Section 6.4 (Single, SingleLazy,
// Path, PathLazy), the non-incremental VF2 baseline, and an anchored
// incremental baseline (IncIso, after Fan et al. as used in the
// authors' prior work).
//
// The engine owns the windowed data graph: feed it stream edges with
// ProcessEdge and it returns the incremental set of complete matches
// f(Gd, Gq, E_{k+1}) = M(G^{k+1}_d) − M(G^k_d). ProcessBatch (batch.go)
// ingests many edges at once — one amortized eviction pass, then the
// same per-edge search — with per-edge results identical to the serial
// loop.
//
// # Match lifetimes
//
// The matches an engine returns are the engine's. ProcessEdge,
// ProcessBatch and FlushPending emit every complete match of a call into
// one list (Engine.curResults) and return it, or rows cut from it; the
// slices and the binding arrays behind each iso.Match stay valid until
// the next of those three calls on the same engine, and no longer. That
// call begins by handing the arrays back to the SJ-Tree's match pool
// (recycleResults), where its own joins pick them up, so a query that
// emits many matches per edge allocates none of them. One list and one
// release point mean no interleaving of the three calls can release an
// array twice. MultiEngine passes the contract through per query engine
// (its own result slices are arena-backed with the same lifetime, see
// batchArena). A caller that keeps a match resolves it to names
// (AppendResolved, Engine.Explain) or Clones it before its next call; a
// MultiEngine.ResolveMatch result is valid until its next call, and the
// streamgraph facade resolves each call's matches into slabs it hands
// out for good. The VF2 and IncIso baselines have no tree and no pool:
// their matches are fresh and simply left to the collector.
//
// The pool holds matches in flight only: the leaf candidates of the call
// (Tree.Insert hands each one's arrays back before it returns) and the
// complete matches above. A stored partial match is not in it and is not
// an iso.Match: the tree keeps its own copy as a record in the node's
// slab, and what onStored and Tree.EachStored are handed is a view into
// that slab, valid for the callback only — onStored reads the vertices
// and keeps nothing, and migrate projects each view into arrays of its
// own. See sjtree.Tree.Insert, the sjtree package comment and
// iso.MatchPool.
package core

import (
	"encoding/json"
	"fmt"
	"io"

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

// Lazy reports whether the strategy uses the Lazy Search bitmap.
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

	// EvictEvery controls how often (in processed edges) window
	// eviction sweeps the graph and the match tables. Default 256.
	EvictEvery int

	// Adaptive, when non-nil, enables adaptive query processing: the
	// engine keeps collecting statistics from the live stream and
	// periodically re-decomposes the query, migrating partial matches
	// into the new SJ-Tree (the paper's Section 7 follow-up problem).
	// Ignored by the VF2 and IncIso baselines.
	Adaptive *AdaptiveConfig
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
	// recycled in the engine's own graph (0 for a query engine under a
	// MultiEngine, whose graph is shared; read
	// MultiEngine.Graph().VerticesReclaimed there).
	VerticesReclaimed int64
	Tree              sjtree.Stats
}

// Engine runs one continuous query over one data stream.
type Engine struct {
	q   *query.Graph
	cfg Config

	g       *graph.Graph
	matcher *iso.Matcher
	tree    *sjtree.Tree // nil for VF2 / IncIso

	// Lazy Search state: bits is the per-vertex leaf-enablement bitmap,
	// dense over the graph's VertexID space (which the window bounds),
	// and bitSet lists the vertices with a non-zero entry — what a sweep
	// walks and a snapshot saves.
	lazy     bool
	bits     []uint64
	bitSet   []graph.VertexID
	allEdges []int

	pending [][]retroItem // per-leaf retrospective work for the current edge
	curEdge graph.EdgeID
	// curResults holds every complete match of the current call, in
	// emission order: what ProcessEdge and FlushPending return and what
	// the rows ProcessBatch returns are cut from. It is the one list
	// recycleResults hands back to the tree's pool when the next call
	// starts (see "Match lifetimes" in the package comment); collect is
	// the persistent emit callback that fills it.
	curResults []iso.Match
	collect    func(iso.Match)

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
	// pass) and retroEmit (the retrospective repair) are the persistent
	// candidate callbacks (allocated once, not per search), parameterized
	// through the cur* fields below.
	mergeEmit  func(iso.Match) bool
	retroEmit  func(iso.Match) bool
	curLeaf    int
	curRequire bool         // mergeEmit: gate candidates on touching an enabled vertex
	curExclude graph.EdgeID // retroEmit: the current edge, whose matches the anchored pass finds
	curFound   int          // candidates emitted by the current search

	chosenKind decompose.Kind
	relSel     float64

	adaptive *adaptiveState
	budget   sjtree.WorkBudget

	// arena backs the batch path's scratch and result slices, recycled
	// per batch generation (see batchArena).
	arena batchArena

	// external marks an engine whose graph ingestion and eviction are
	// managed by a MultiEngine.
	external bool

	sinceEvict int
	stats      Stats
}

type retroItem struct {
	v graph.VertexID
}

// New builds an engine for query q.
func New(q *query.Graph, cfg Config) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if cfg.EvictEvery <= 0 {
		cfg.EvictEvery = 256
	}
	e := &Engine{
		q:   q,
		cfg: cfg,
		g:   graph.New(),
	}
	e.matcher = e.newMatcher()
	e.collect = func(m iso.Match) { e.curResults = append(e.curResults, m) }
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
		if !m.HasEdge(e.curExclude) && !e.retroSeenBefore(m, e.tree.LeafEdges(e.curLeaf)) {
			e.stats.RetroMatches++
			e.insert(e.curLeaf, e.matcher.Retain(m))
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
	if len(leaves) > 64 {
		return nil, fmt.Errorf("core: decomposition has %d leaves; the lazy bitmap supports at most 64", len(leaves))
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
		e.pending = make([][]retroItem, len(leaves))
	}
	if cfg.Adaptive != nil {
		ac := *cfg.Adaptive
		if ac.RecomputeEvery <= 0 {
			ac.RecomputeEvery = 10000
		}
		e.adaptive = &adaptiveState{cfg: ac, collector: selectivity.NewCollector()}
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

// newMatcher builds a matcher over the engine's current graph with the
// engine's search limits. The tree's match pool is wired where the
// matcher is (re)bound to a tree.
func (e *Engine) newMatcher() *iso.Matcher {
	m := iso.NewMatcher(e.g, e.q)
	m.Window = e.cfg.Window
	m.MaxMatches = e.cfg.MaxMatchesPerSearch
	m.MaxStepsPerSearch = e.cfg.MaxStepsPerSearch
	return m
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
	if !e.external {
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
func (e *Engine) ProcessEdge(se stream.Edge) []iso.Match {
	de := ingestOne(e.g, se)
	e.maybeEvict()
	if e.adaptive != nil {
		e.observeAdaptive(se)
	}
	return e.processShared(de)
}

// recycleResults ends the lifetime of the previous call's complete
// matches: their binding arrays go back to the tree's pool, where the
// joins of the call now starting find them. Every result-returning entry
// point runs it first, and all of them emit into curResults only, so
// whichever way per-edge, batch and flush calls interleave, an array is
// released exactly once. The baselines have no tree; their matches are
// left to the collector.
func (e *Engine) recycleResults() {
	if len(e.curResults) == 0 {
		return // most edges of most streams complete nothing
	}
	if e.tree != nil {
		for _, m := range e.curResults {
			e.tree.Release(m)
		}
	}
	// Zeroed, not just truncated: a slot past the length must not pin
	// the arrays of a match the pool had no room for.
	clear(e.curResults)
	e.curResults = e.curResults[:0]
}

// processShared runs the per-edge incremental search assuming the edge
// is already present in the graph (the MultiEngine ingestion path). The
// result is curResults itself (see ProcessEdge for its lifetime).
func (e *Engine) processShared(de graph.Edge) []iso.Match {
	e.recycleResults()
	e.searchEdge(de)
	e.stats.CompleteMatches += int64(len(e.curResults))
	return e.curResults
}

// searchEdge is the incremental search for one edge already present in
// the graph, under the engine's strategy: the one per-edge step behind
// ProcessEdge and every batch. Complete matches go to curResults.
func (e *Engine) searchEdge(de graph.Edge) {
	e.stats.EdgesProcessed++
	e.curEdge = de.ID
	if e.tree != nil && e.cfg.MaxWorkPerEdge > 0 {
		e.budget.Remaining = e.cfg.MaxWorkPerEdge
		e.tree.Budget = &e.budget
	}
	switch e.cfg.Strategy {
	case StrategyVF2:
		e.processVF2(de)
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
// that include the newest edge (exactly the incremental delta).
func (e *Engine) processVF2(de graph.Edge) {
	for _, m := range e.matcher.FindAll(e.allEdges) {
		if m.HasEdge(de.ID) {
			e.curResults = append(e.curResults, m)
		}
	}
}

// processIncIso anchors a full-query search at the new edge.
func (e *Engine) processIncIso(de graph.Edge) {
	e.curResults = append(e.curResults, e.matcher.FindAroundEdge(e.allEdges, de)...)
}

// processTree is Algorithms 1 and 3: search the SJ-Tree leaves around
// the new edge, lazily when enabled, and cascade joins.
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
			if l > 0 && !e.enabled(de.Src, l) && !e.enabled(de.Dst, l) {
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
// search enabled.
func (e *Engine) touchesEnabled(m iso.Match, l int) bool {
	for _, dv := range m.VertexOf {
		if dv != graph.NoVertex && e.enabled(dv, l) {
			return true
		}
	}
	return false
}

func (e *Engine) insert(leaf int, m iso.Match) {
	e.tree.Insert(leaf, m, e.collect, e.onStored)
}

// onStored implements ENABLE-SEARCH-SIBLING: a match stored at a node
// with a NextLeaf enables that leaf's search for all of the match's
// vertices, queueing a retrospective search per newly enabled vertex.
func (e *Engine) onStored(n *sjtree.Node, m iso.Match) {
	if !e.lazy || n.NextLeaf < 0 {
		return
	}
	bit := uint64(1) << uint(n.NextLeaf)
	for _, dv := range m.VertexOf {
		if dv == graph.NoVertex {
			continue
		}
		if e.enableBits(dv, bit) == 0 {
			continue
		}
		e.pending[n.NextLeaf] = append(e.pending[n.NextLeaf], retroItem{v: dv})
	}
}

// drainRetro performs the queued retrospective searches for leaf l:
// matches formed purely from edges that arrived before the current one
// (the current edge's matches are found by the anchored pass). Batch
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
		e.curFound = 0
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

func (e *Engine) enabled(v graph.VertexID, leaf int) bool {
	return int(v) < len(e.bits) && e.bits[v]&(uint64(1)<<uint(leaf)) != 0
}

// enableBits sets mask in v's bitmap entry and returns the bits of mask
// that were not set before.
func (e *Engine) enableBits(v graph.VertexID, mask uint64) uint64 {
	if int(v) >= len(e.bits) {
		e.bits = append(e.bits, make([]uint64, e.g.NumVertices()-len(e.bits))...)
	}
	old := e.bits[v]
	if old == 0 && mask != 0 {
		e.bitSet = append(e.bitSet, v)
	}
	e.bits[v] = old | mask
	return mask &^ old
}

// clearBits empties the lazy bitmap, keeping its storage.
func (e *Engine) clearBits() {
	for _, v := range e.bitSet {
		e.bits[v] = 0
	}
	e.bitSet = e.bitSet[:0]
}

// sweep is the one window-maintenance pass: it expires g at cutoff and
// then prunes every engine searching g at the same cutoff, returning
// the number of graph edges removed. The order is what makes recycled
// IDs safe (see "ID lifetimes" in package graph): the graph pass frees
// the EdgeIDs of expired edges and the VertexIDs of the vertices left
// without an edge; before anything can reuse them, each engine drops
// every holder of such an ID — stored matches older than the cutoff (a
// surviving match binds only live edges, hence only vertices that kept
// one), and the lazy bits and queued retrospective searches of
// vertices without an edge. A queue normally drains within the edge
// that filled it; it outlives one only after an adaptive migration or
// a checkpoint restore, and the batch path sweeps before it ingests,
// so without the last step such an item would be searched around
// whichever name took the slot. Dropping it loses nothing: a search
// around a vertex without an edge finds nothing.
func sweep(g *graph.Graph, cutoff int64, engines ...*Engine) int {
	evicted := g.ExpireBefore(cutoff)
	for _, e := range engines {
		if e.tree != nil {
			e.tree.ExpireBefore(cutoff)
		}
		if !e.lazy {
			continue
		}
		kept := e.bitSet[:0]
		for _, v := range e.bitSet {
			if g.Degree(v) == 0 {
				e.bits[v] = 0
			} else {
				kept = append(kept, v)
			}
		}
		e.bitSet = kept
		for l, items := range e.pending {
			live := items[:0]
			for _, it := range items {
				if g.Degree(it.v) > 0 {
					live = append(live, it)
				}
			}
			e.pending[l] = live
		}
	}
	return evicted
}

// maybeEvict performs periodic window maintenance (see sweep).
func (e *Engine) maybeEvict() { e.advanceEvict(1) }

// advanceEvict advances the eviction clock by n processed edges and
// sweeps when the cadence fires. ProcessBatch calls it once per batch
// BEFORE ingesting, so its cutoff (computed from the pre-batch LastTS)
// is never ahead of any cutoff the serial per-edge schedule would have
// used mid-batch: with non-decreasing timestamps evicting late only
// costs memory — the window checks in the matcher and the SJ-Tree
// joins keep the match sets identical — while evicting early could
// drop edges a serial run would still match. When a timestamp
// regresses by more than the window across an eviction boundary, the
// serial schedule has already lost the old edge to eviction slack (an
// EvictEvery artifact; see graph.ExpireBefore) and the batch path may
// report strictly more window-valid matches — a superset, never fewer
// (pinned by TestBatchOutOfOrderSuperset).
func (e *Engine) advanceEvict(n int) {
	if e.cfg.Window <= 0 {
		return
	}
	e.sinceEvict += n
	if e.sinceEvict < e.cfg.EvictEvery {
		return
	}
	e.ForceEvict()
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
