package shard

import (
	"flag"
	"os"
	"testing"

	"streamgraph/internal/graph"
	"streamgraph/internal/sjtree"
)

// -shard.poison runs the whole package with the poison hooks on (CI
// does, once): every test's consumer then reads a scribble where it kept
// a Match past its Drain callback without Clone, every worker reads one
// where it resolved an engine's match after the engine's next call, and
// a search reads one where it walked an adjacency list the graph had
// released.
var poisonFlag = flag.Bool("shard.poison", false, "scribble over every collection block handed back to a free list, every engine result slab reset and every released adjacency block")

func TestMain(m *testing.M) {
	flag.Parse()
	if *poisonFlag {
		recycleHook = poisonBlock
		sjtree.ResetHook = sjtree.Scribble
		graph.ReleaseHook = graph.Scribble
	}
	os.Exit(m.Run())
}

// poisonName is what the poison hook writes over every string of a
// recycled block.
const poisonName = "\x00recycled"

func poisonBlock(b *block) {
	for i := range b.matches {
		b.matches[i] = Match{Query: poisonName, Seq: ^uint64(0), Shard: -1}
	}
	for i := range b.bindings {
		b.bindings[i] = Binding{QueryVertex: poisonName, DataVertex: poisonName}
	}
	for i := range b.edges {
		b.edges[i] = MatchEdge{QueryEdge: -1, Src: poisonName, Dst: poisonName, Type: poisonName}
	}
}

// poisonRecycled turns the poison hook on for the rest of the test:
// whoever keeps a Match past its callback without Clone reads poisonName
// where the names were.
func poisonRecycled(t *testing.T) {
	prev := recycleHook
	recycleHook = poisonBlock
	t.Cleanup(func() { recycleHook = prev })
}
