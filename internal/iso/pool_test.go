package iso

import (
	"testing"

	"streamgraph/internal/query"
)

// TestMatchPoolTrim pins the low-water-mark trim: a Trim drops what no
// Get reached in the two periods it closes and keeps what either of them
// drew, whatever was put back since; two quiet periods empty the pool;
// and the Get/fresh counters do not move.
func TestMatchPoolTrim(t *testing.T) {
	p := NewMatchPool(query.NewPath(query.Wildcard, "a", "b"))
	held := make([]Match, 10)
	for i := range held {
		held[i] = p.Get()
		held[i].MinTS = int64(i) // tag: Put and Get move whole Match values
	}
	for _, m := range held {
		p.Put(m)
	}
	p.Trim() // closes the period that filled the pool from empty: low-water mark 0
	if p.Len() != 10 {
		t.Fatalf("Len = %d after the opening Trim, want 10", p.Len())
	}
	// Tags 0..9 sit bottom to top.

	// One period draws five and returns them: the list dips to 5.
	var drawn [5]Match
	for i := range drawn {
		if drawn[i] = p.Get(); drawn[i].MinTS != int64(9-i) {
			t.Fatalf("Get %d returned tag %d, want LIFO %d", i, drawn[i].MinTS, 9-i)
		}
	}
	for i := len(drawn) - 1; i >= 0; i-- {
		p.Put(drawn[i])
	}
	p.Trim()
	if p.Len() != 10 {
		t.Fatalf("Len = %d, want 10: the period before this one reached the bottom of the list", p.Len())
	}
	// The next draws three: the list dips to 7. Tags 0..4 have now sat
	// below both periods' low-water marks (5 and 7).
	a, b, c := p.Get(), p.Get(), p.Get()
	p.Put(c)
	p.Put(b)
	p.Put(a)
	gets, fresh := p.Stats()
	p.Trim()
	if p.Len() != 5 {
		t.Fatalf("Len = %d after Trim, want the 5 that one of the two periods touched", p.Len())
	}
	if g, f := p.Stats(); g != gets || f != fresh {
		t.Fatalf("Trim moved Stats from %d/%d to %d/%d", gets, fresh, g, f)
	}
	for want := int64(9); want >= 5; want-- {
		if m := p.Get(); m.MinTS != want {
			t.Fatalf("kept match tagged %d, want %d: Trim must drop the bottom of the stack", m.MinTS, want)
		}
	}
	if _, f := p.Stats(); f != fresh {
		t.Fatalf("a kept match was allocated afresh")
	}

	// Two periods without a single Get leave nothing worth keeping.
	p.Put(a)
	p.Put(b)
	p.Trim() // this period's low-water mark was 0: both stay
	p.Trim() // quiet, but the period before was not
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after one quiet period", p.Len())
	}
	p.Trim()
	if p.Len() != 0 {
		t.Fatalf("Len = %d after two quiet periods, want 0", p.Len())
	}
	if tail := p.free[:cap(p.free)]; len(tail) > 0 && tail[0].VertexOf != nil {
		t.Fatal("Trim left a dropped match reachable from the free list's backing array")
	}
}
