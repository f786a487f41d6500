package refmatch

import (
	"testing"

	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// TestRunByHand checks the oracle against a stream small enough to
// evaluate on paper: window, labels, injectivity, parallel edges and
// the "completed by its newest edge" attribution.
func TestRunByHand(t *testing.T) {
	e := func(src, dst, typ string, ts int64) stream.Edge {
		return stream.Edge{Src: src, SrcLabel: "ip", Dst: dst, DstLabel: "ip", Type: typ, TS: ts}
	}
	edges := []stream.Edge{
		e("a", "b", "TCP", 1),
		e("b", "c", "UDP", 2),  // completes a>b>c
		e("b", "a", "UDP", 3),  // b>a would reuse a: not injective
		e("a", "b", "TCP", 4),  // a parallel edge: a second a>b>c, and nothing with the UDP edge at 3
		e("b", "d", "UDP", 11), // a>b@1 is 10 ticks old: outside the window; a>b@4 is inside
	}
	q := map[string]*query.Graph{"p": query.NewPath("ip", "TCP", "UDP")}
	got := Run(q, edges, 10)
	want := []Match{
		{Query: "p", First: 0, Last: 1},
		{Query: "p", First: 1, Last: 3},
		{Query: "p", First: 3, Last: 4},
	}
	if len(got) != len(want) {
		t.Fatalf("oracle found %d matches, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Query != w.Query || got[i].First != w.First || got[i].Last != w.Last {
			t.Errorf("match %d = %+v, want first/last %d/%d", i, got[i], w.First, w.Last)
		}
	}
	if wantKey := "p|v0=a,v1=b,v2=d|0:a>b:TCP@4,1:b>d:UDP@11"; got[2].Key != wantKey {
		t.Errorf("key %q, want %q", got[2].Key, wantKey)
	}
	if n := len(Run(map[string]*query.Graph{"p": query.NewPath("srv", "TCP", "UDP")}, edges, 10)); n != 0 {
		t.Errorf("%d matches under a label no vertex carries", n)
	}
}

// TestChurnWorkload checks the generated workload is fit for purpose and
// reproducible.
func TestChurnWorkload(t *testing.T) {
	a, want, err := ChurnWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	b := Churn(1, ChurnEdges, ChurnDomain)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs between two generations of seed 1", i)
		}
		if i > 0 && a[i].TS < a[i-1].TS {
			t.Fatalf("timestamp regresses at edge %d", i)
		}
	}
	if d := Diff(ByQuery(want)["path3"], ByQuery(want)["path3"]); d != "" {
		t.Fatalf("Diff of a multiset with itself: %s", d)
	}
	if d := Diff(ByQuery(want)["path3"], nil); d == "" {
		t.Fatal("Diff against an empty multiset reported equality")
	}
}
