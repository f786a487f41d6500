package graph

import "hash/maphash"

// The name index is a directory over the vertex table: an
// open-addressed, linearly probed array of (hash, VertexID) slots kept
// at most half full. It stores no string — a slot whose hash matches is
// verified against verts[v].name, the record the caller is about to
// touch anyway — and no tombstone: under a sliding window the index
// gains and loses a vertex per edge, so a deletion shifts the rest of
// its probe run back and a lookup always ends at the first empty slot.
// It only grows: under four slots per vertex of the graph's peak.
type nameSlot struct {
	hash uint32
	ref  uint32 // VertexID + 1; 0 marks an empty slot
}

const minNameSlots = 16

// nameSeed keys the hash for the life of the process; hashes are never
// persisted (a loaded graph rebuilds its index through EnsureVertex).
var nameSeed = maphash.MakeSeed()

func (g *Graph) hashName(name string) uint32 {
	if g.collide {
		// Every name in one probe run that starts a slot before the
		// table's end, so that it wraps.
		return ^uint32(0) - 1
	}
	return uint32(maphash.String(nameSeed, name))
}

// findName probes for name (whose hash is h). It returns the vertex and
// its slot, or NoVertex and the empty slot that ends the probe run,
// where EnsureVertex puts the name.
func (g *Graph) findName(name string, h uint32) (VertexID, uint32) {
	mask := uint32(len(g.names) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := g.names[i]
		if s.ref == 0 {
			return NoVertex, i
		}
		if s.hash == h && g.verts[s.ref-1].name == name {
			return VertexID(s.ref - 1), i
		}
	}
}

// reserveName doubles the table when one more name (every live vertex
// holds one slot) would take it past half full.
func (g *Graph) reserveName() {
	if 2*(g.LiveVertices()+1) <= len(g.names) {
		return
	}
	old := g.names
	g.names = make([]nameSlot, 2*len(old))
	mask := uint32(len(g.names) - 1)
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		i := s.hash & mask
		for g.names[i].ref != 0 {
			i = (i + 1) & mask
		}
		g.names[i] = s
	}
}

// deleteName removes v (whose name hashes to h) and closes the gap:
// every later entry of the probe run that the gap would cut off from
// its home slot moves back into it.
func (g *Graph) deleteName(v VertexID, h uint32) {
	mask := uint32(len(g.names) - 1)
	i := h & mask
	for g.names[i].ref != uint32(v)+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; g.names[j].ref != 0; j = (j + 1) & mask {
		// The entry at j may fill the gap at i unless its home slot lies
		// cyclically in (i, j]: then it is still reachable where it is.
		if home := g.names[j].hash & mask; (j-home)&mask >= (j-i)&mask {
			g.names[i] = g.names[j]
			i = j
		}
	}
	g.names[i] = nameSlot{}
}
