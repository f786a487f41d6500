package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"streamgraph/internal/core"
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/query"
	"streamgraph/internal/sjtree"
)

// The sections the image and the legacy single-engine image share: the
// vertex and edge tables, a tree's stored partial matches, a
// decomposition's leaves and the engine counters. The saver builds the
// image in one buffer and writes it whole; a loader reads the image
// whole into one buffer and decodes it with a bounds-checked cursor (see
// docs/PERSISTENCE.md, "Restore cost").

// Minimum encoded sizes, in bytes, of the records an image counts: a
// count is refused unless that many records fit in what is left.
const (
	vertexSize = 4 + 4          // name and label lengths
	edgeSize   = 4 + 4 + 4 + 8  // src, dst, type length, ts
	maskSize   = 4 + 8          // a version 1 Lazy Search mask
	storedSize = 4 + 4 + 4 + 16 // node, slot counts, MinTS and MaxTS; plus 4 per slot
	// querySize is a multi image's per-query section with empty strings,
	// leaves, tables and queues: name, text, config (strategy, match cap,
	// work and step caps, pool slot), leaf count, stored count, retro
	// leaf count and seven counters.
	querySize = 4 + 4 + 4 + 4 + 8 + 8 + 4 + 4 + 4 + 4 + 7*8
)

// --- saving -----------------------------------------------------------

// encoder appends an image to one buffer.
type encoder struct{ b []byte }

func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

func (e *encoder) i64(v int64) { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) leaves(leaves [][]int) {
	e.u32(uint32(len(leaves)))
	for _, leaf := range leaves {
		e.u32(uint32(len(leaf)))
		for _, ei := range leaf {
			e.u32(uint32(ei))
		}
	}
}

func (e *encoder) stats(st core.Stats) {
	for _, v := range [...]int64{
		st.EdgesProcessed, st.LeafSearches, st.LeafMatches,
		st.RetroSearches, st.RetroMatches, st.CompleteMatches,
		st.GraphEvicted,
	} {
		e.i64(v)
	}
}

// index numbers the vertices and edges an image refers to, in the order
// the image lists them: every live edge in arrival order, the vertices
// as their first reference meets them. vert and edge are dense over the
// graph's ID spaces and hold a table position plus one, 0 for an ID the
// image does not refer to.
type index struct {
	g     *graph.Graph
	vert  []uint32
	edge  []uint32
	verts []graph.VertexID
	edges []graph.Edge
}

// newIndex numbers g's live edges and their endpoints.
func newIndex(g *graph.Graph) *index {
	ix := &index{
		g:     g,
		vert:  make([]uint32, g.NumVertices()),
		edge:  make([]uint32, g.NumEdgeSlots()),
		edges: make([]graph.Edge, 0, g.NumEdges()),
	}
	g.EachEdgeArrival(func(e graph.Edge) bool {
		ix.edges = append(ix.edges, e)
		ix.edge[e.ID] = uint32(len(ix.edges))
		ix.need(e.Src)
		ix.need(e.Dst)
		return true
	})
	return ix
}

// need numbers v if it has no number yet.
func (ix *index) need(v graph.VertexID) {
	if ix.vert[v] == 0 {
		ix.verts = append(ix.verts, v)
		ix.vert[v] = uint32(len(ix.verts))
	}
}

// needStored is the first of two passes over t's stored matches (nil for
// a strategy without a tree): it numbers every vertex they bind for the
// vertex table, which the image carries ahead of the matches, checks
// that every edge they bind is live, and counts them. EachStored hands
// out views, so nothing is kept; encoder.stored encodes them on a second
// pass over the unchanged tree.
func (ix *index) needStored(t *sjtree.Tree) (n int, err error) {
	if t == nil {
		return 0, nil
	}
	t.EachStored(func(_ *sjtree.Node, m iso.Match) bool {
		for _, dv := range m.VertexOf {
			if dv != graph.NoVertex {
				ix.need(dv)
			}
		}
		for _, de := range m.EdgeOf {
			if de != iso.NoEdge && (int(de) >= len(ix.edge) || ix.edge[de] == 0) {
				err = fmt.Errorf("stored match references edge %d not in the live graph", de)
				return false
			}
		}
		n++
		return true
	})
	return n, err
}

// graph writes the vertex table and the edge table in arrival order.
func (e *encoder) graph(ix *index) {
	g := ix.g
	e.u32(uint32(len(ix.verts)))
	for _, v := range ix.verts {
		e.str(g.VertexName(v))
		e.str(g.Labels().Name(uint32(g.VertexLabel(v))))
	}
	e.u32(uint32(len(ix.edges)))
	for _, ed := range ix.edges {
		e.u32(ix.vert[ed.Src] - 1)
		e.u32(ix.vert[ed.Dst] - 1)
		e.str(g.Types().Name(uint32(ed.Type)))
		e.i64(ed.TS)
	}
}

// stored writes the n stored matches needStored counted in t.
func (e *encoder) stored(t *sjtree.Tree, n int, ix *index) {
	e.u32(uint32(n))
	if n == 0 {
		return
	}
	t.EachStored(func(node *sjtree.Node, m iso.Match) bool {
		e.u32(uint32(node.ID))
		e.u32(uint32(len(m.VertexOf)))
		for _, dv := range m.VertexOf {
			if dv == graph.NoVertex {
				e.u32(noIdx)
			} else {
				e.u32(ix.vert[dv] - 1)
			}
		}
		e.u32(uint32(len(m.EdgeOf)))
		for _, de := range m.EdgeOf {
			if de == iso.NoEdge {
				e.u32(noIdx)
			} else {
				e.u32(ix.edge[de] - 1)
			}
		}
		e.i64(m.MinTS)
		e.i64(m.MaxTS)
		return true
	})
}

// --- loading ----------------------------------------------------------

// decoder reads an image out of one buffer. The first read that would
// pass the end, or a count the rest cannot hold, sets err and moves the
// cursor to the end, so every read after it fails too and returns zero:
// a section decodes to its end and checks err once.
type decoder struct {
	b   []byte
	off int
	err error
}

// readImage reads r to its end into one buffer, in one read when r
// reports its length.
func readImage(r io.Reader) (*decoder, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		b := make([]byte, l.Len())
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		return &decoder{b: b}, nil
	}
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return &decoder{b: b}, nil
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.off = len(d.b)
}

// errShort fails a read past the end of the image.
var errShort = fmt.Errorf("image ends inside a field: %w", io.ErrUnexpectedEOF)

// take returns the next n bytes, a view into the buffer.
func (d *decoder) take(n int) []byte {
	if b := d.b[d.off:]; uint(n) <= uint(len(b)) {
		d.off += n
		return b[:n:n]
	}
	d.fail(errShort)
	return nil
}

func (d *decoder) u32() uint32 {
	if b := d.b[d.off:]; len(b) >= 4 {
		d.off += 4
		return binary.LittleEndian.Uint32(b)
	}
	d.fail(errShort)
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.b[d.off:]; len(b) >= 8 {
		d.off += 8
		return binary.LittleEndian.Uint64(b)
	}
	d.fail(errShort)
	return 0
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

// view returns a length-prefixed string's bytes, a view into the
// buffer; str copies them out.
func (d *decoder) view() []byte { return d.take(int(d.u32())) }

func (d *decoder) str() string { return string(d.view()) }

// count reads a record count and refuses it unless that many records of
// at least size bytes fit in what is left of the image, so no corrupt
// count sizes an allocation.
func (d *decoder) count(size int) int {
	n := int(d.u32())
	if n > (len(d.b)-d.off)/size {
		d.fail(fmt.Errorf("count %d at byte %d: the %d bytes left hold at most %d records of %d bytes",
			n, d.off-4, len(d.b)-d.off, (len(d.b)-d.off)/size, size))
	}
	if d.err != nil {
		return 0
	}
	return n
}

func (d *decoder) leaves() [][]int {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	leaves := make([][]int, n)
	for i := range leaves {
		leaf := make([]int, d.count(4))
		for j := range leaf {
			leaf[j] = int(d.u32())
		}
		leaves[i] = leaf
	}
	return leaves
}

func (d *decoder) stats() core.Stats {
	var st core.Stats
	st.EdgesProcessed = d.i64()
	st.LeafSearches = d.i64()
	st.LeafMatches = d.i64()
	st.RetroSearches = d.i64()
	st.RetroMatches = d.i64()
	st.CompleteMatches = d.i64()
	st.GraphEvicted = d.i64()
	return st
}

// graph decodes the vertex and edge tables into g, which holds nothing
// yet, and returns the IDs of their rows in g. It reads the tables
// twice: a pre-scan checks every edge's endpoints and counts the degrees
// graph.Reserve sizes g by, then the vertices and the edges, in arrival
// order, go in.
func (d *decoder) graph(g *graph.Graph) ([]graph.VertexID, []graph.EdgeID, error) {
	nVerts := d.count(vertexSize)
	vertices := d.off
	for i := 0; i < nVerts; i++ {
		d.view()
		d.view()
	}
	nEdges := d.count(edgeSize)
	edges := d.off
	deg := make([]int32, 2*nVerts) // out-degrees, then in-degrees
	for i := 0; i < nEdges; i++ {
		src, dst := d.u32(), d.u32()
		d.view()
		d.i64()
		if d.err != nil {
			return nil, nil, d.err
		}
		if int(src) >= nVerts || int(dst) >= nVerts {
			return nil, nil, fmt.Errorf("edge %d references vertex out of range", i)
		}
		deg[src]++
		deg[nVerts+int(dst)]++
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	g.Reserve(deg[:nVerts], deg[nVerts:])

	d.off = vertices
	vertID := make([]graph.VertexID, nVerts)
	labels := g.Labels()
	for i := range vertID {
		name := d.str()
		label := labels.Name(labels.InternBytes(d.view()))
		vertID[i] = g.EnsureVertex(name, label)
	}
	d.off = edges
	edgeID := make([]graph.EdgeID, nEdges)
	types := g.Types()
	for i := range edgeID {
		src, dst := d.u32(), d.u32()
		t := graph.TypeID(types.InternBytes(d.view()))
		edgeID[i] = g.AddEdge(vertID[src], vertID[dst], t, d.i64())
	}
	return vertID, edgeID, d.err
}

// stored decodes a stored-match section into t (nil for a strategy that
// builds no tree). A pre-scan checks every record's shape and counts
// them per node for Tree.ReserveStored; then one scratch match is
// decoded into and handed to RestoreStored, which copies it.
func (d *decoder) stored(t *sjtree.Tree, q *query.Graph, vertID []graph.VertexID, edgeID []graph.EdgeID) error {
	m := iso.NewMatch(q)
	nv, ne := len(m.VertexOf), len(m.EdgeOf)
	n := d.count(storedSize + 4*(nv+ne))
	if d.err != nil || n == 0 {
		return d.err
	}
	if t == nil {
		return errors.New("stored matches for a strategy that builds no tree")
	}
	start := d.off
	counts := make([]int, len(t.Nodes))
	for i := 0; i < n; i++ {
		node := d.u32()
		if k := d.u32(); d.err == nil && int(k) != nv {
			return fmt.Errorf("match %d has %d vertex slots, query has %d", i, k, nv)
		}
		d.take(4 * nv)
		if k := d.u32(); d.err == nil && int(k) != ne {
			return fmt.Errorf("match %d has %d edge slots, query has %d", i, k, ne)
		}
		d.take(4*ne + 16)
		if d.err != nil {
			return d.err
		}
		if int(node) >= len(counts) {
			return fmt.Errorf("match %d is stored at node %d, the tree has %d", i, node, len(counts))
		}
		counts[node]++
	}
	t.ReserveStored(counts)

	d.off = start
	for i := 0; i < n; i++ {
		node := int(d.u32())
		d.u32()
		for j := range m.VertexOf {
			m.VertexOf[j] = graph.NoVertex
			if idx := d.u32(); idx != noIdx {
				if int(idx) >= len(vertID) {
					return fmt.Errorf("match %d binds unknown vertex %d", i, idx)
				}
				m.VertexOf[j] = vertID[idx]
			}
		}
		d.u32()
		for j := range m.EdgeOf {
			m.EdgeOf[j] = iso.NoEdge
			if idx := d.u32(); idx != noIdx {
				if int(idx) >= len(edgeID) {
					return fmt.Errorf("match %d binds unknown edge %d", i, idx)
				}
				m.EdgeOf[j] = edgeID[idx]
			}
		}
		m.MinTS = d.i64()
		m.MaxTS = d.i64()
		if err := t.RestoreStored(node, m); err != nil {
			return err
		}
	}
	return d.err
}

// retro decodes a queued retrospective-work section: per leaf, the
// vertices searched around. It returns nil for an empty queue.
func (d *decoder) retro(vertID []graph.VertexID) ([][]graph.VertexID, error) {
	n := d.count(4)
	if n == 0 {
		return nil, d.err
	}
	perLeaf := make([][]graph.VertexID, n)
	for l := range perLeaf {
		k := d.count(4)
		if k == 0 {
			continue
		}
		vs := make([]graph.VertexID, k)
		for j := range vs {
			idx := d.u32()
			if d.err != nil {
				return nil, d.err
			}
			if int(idx) >= len(vertID) {
				return nil, fmt.Errorf("retro queue references unknown vertex %d", idx)
			}
			vs[j] = vertID[idx]
		}
		perLeaf[l] = vs
	}
	return perLeaf, d.err
}

// skipLazyMasks reads past a version 1 image's Lazy Search section, one
// mask per vertex, checking only that each names a vertex of the image.
func (d *decoder) skipLazyMasks(nVerts int) error {
	n := d.count(maskSize)
	for i := 0; i < n && d.err == nil; i++ {
		if idx := d.u32(); d.err == nil && int(idx) >= nVerts {
			return fmt.Errorf("lazy bits reference unknown vertex %d", idx)
		}
		d.u64()
	}
	return d.err
}
