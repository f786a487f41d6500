package graph

import (
	"math"
	"math/bits"
	"slices"
)

// The size classes of adjacency blocks (see "Adjacency memory" in the
// package comment): a block of class c holds 1<<c records, lists longer
// than adjMaxList are made by the runtime, and blocks are cut from
// chunks of adjChunk records.
const (
	adjChunk   = 256
	adjClasses = 8
	adjMaxList = 1 << (adjClasses - 1)
)

// adjAlloc is a graph's allocator of adjacency blocks.
type adjAlloc struct {
	chunk []adjRec               // the part of the current chunk not cut yet
	free  [adjClasses][][]adjRec // released blocks by class, empty, capacity 1<<class
}

// ReleaseHook, when non-nil, sees every adjacency block put on a free
// list, before a list can take it again. Tests set it to Scribble, so
// that whoever read a list across a change to the graph reads the
// scribble.
var ReleaseHook func(block []adjRec)

// Scribble overwrites every record of block, up to its capacity, with
// one no edge has.
func Scribble(block []adjRec) {
	block = block[:cap(block)]
	for i := range block {
		block[i] = adjRec{peer: NoVertex - 1, etype: math.MaxUint32, eid: math.MaxUint32, ts: math.MinInt64}
	}
}

// get returns an empty block of class c.
func (a *adjAlloc) get(c int) []adjRec {
	if n := len(a.free[c]); n > 0 {
		b := a.free[c][n-1]
		a.free[c] = a.free[c][:n-1]
		return b
	}
	size := 1 << c
	if len(a.chunk) < size {
		a.chunk = make([]adjRec, adjChunk)
	}
	b := a.chunk[:0:size]
	a.chunk = a.chunk[size:]
	return b
}

// release puts block on the free list of the largest class it holds —
// a piece of Reserve's slab need not be a power of two — or leaves it to
// the collector when it is longer than any class.
func (a *adjAlloc) release(block []adjRec) {
	n := cap(block)
	if n == 0 || n > adjMaxList {
		return
	}
	if ReleaseHook != nil {
		ReleaseHook(block)
	}
	c := bits.Len(uint(n)) - 1
	a.free[c] = append(a.free[c], block[:0:1<<c])
}

// push appends r to list, moving a full list to a larger block first.
func (a *adjAlloc) push(list []adjRec, r adjRec) []adjRec {
	if len(list) == cap(list) {
		list = a.grow(list)
	}
	return append(list, r)
}

// grow moves a full list to a block of the next class, or past the
// largest class to one the runtime makes, and releases the old block.
func (a *adjAlloc) grow(list []adjRec) []adjRec {
	var grown []adjRec
	if c := bits.Len(uint(cap(list))); c < adjClasses {
		grown = append(a.get(c), list...)
	} else {
		grown = slices.Grow(list, 1)
	}
	a.release(list)
	return grown
}

// reclaim releases the lists of a vertex slot being freed, except a
// one-record list: the slot keeps that for the next name it takes,
// which most often needs no more.
func (a *adjAlloc) reclaim(list *[]adjRec) {
	if cap(*list) > 1 {
		a.release(*list)
		*list = nil
	}
}
