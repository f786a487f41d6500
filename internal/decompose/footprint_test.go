package decompose

import (
	"reflect"
	"testing"

	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/sjtree"
)

func TestFootprintMatchesQueryTypes(t *testing.T) {
	q := query.NewPath(query.Wildcard, "GRE", "TCP", "GRE")
	stats := selectivity.NewCollector()
	leaves, err := SingleDecompose(q, stats)
	if err != nil {
		t.Fatal(err)
	}
	types, exact, err := Footprint(q, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Fatal("typed query must have an exact footprint")
	}
	if want := []string{"GRE", "TCP"}; !reflect.DeepEqual(types, want) {
		t.Fatalf("footprint = %v, want %v", types, want)
	}
	// The path decomposition of the same query has the same footprint.
	pleaves, _, err := PathDecompose(q, stats)
	if err != nil {
		t.Fatal(err)
	}
	ptypes, pexact, err := Footprint(q, pleaves)
	if err != nil {
		t.Fatal(err)
	}
	if !pexact || !reflect.DeepEqual(ptypes, types) {
		t.Fatalf("path footprint %v (exact=%v) differs from single %v", ptypes, pexact, types)
	}
}

func TestFootprintWildcardTypeInexact(t *testing.T) {
	q := query.NewPath(query.Wildcard, "TCP", query.Wildcard)
	types, exact := q.TypeFootprint()
	if exact {
		t.Fatal("wildcard edge type must make the footprint inexact")
	}
	if want := []string{"TCP"}; !reflect.DeepEqual(types, want) {
		t.Fatalf("footprint = %v, want %v", types, want)
	}
}

func TestFootprintRejectsPartialCover(t *testing.T) {
	q := query.NewPath(query.Wildcard, "TCP", "UDP")
	if _, _, err := Footprint(q, [][]int{{0}}); err == nil {
		t.Fatal("uncovered query edge must be rejected")
	}
	if _, _, err := Footprint(q, [][]int{{0}, {7}}); err == nil {
		t.Fatal("out-of-range leaf index must be rejected")
	}
}

// TestFootprintRefusesWhatBuildRefuses pins the contract the sharded
// router relies on when it refuses a registration before any slot sees
// it: a leaf set has a footprint exactly when sjtree.Build accepts it.
func TestFootprintRefusesWhatBuildRefuses(t *testing.T) {
	q := query.NewPath(query.Wildcard, "TCP", "UDP", "GRE")
	for _, leaves := range [][][]int{
		{{0}, {1}, {2}},
		{{2, 1}, {0}},
		{{0, 1, 2}},
		nil,
		{},
		{{0}, {}, {1, 2}},
		{{0}, {1}},
		{{0}, {1}, {2}, {3}},
		{{0}, {-1}, {1, 2}},
		{{0, 1}, {1, 2}},
		{{0}, {1}, {2}, {2}},
	} {
		_, _, ferr := Footprint(q, leaves)
		_, berr := sjtree.Build(q, leaves, 0)
		if (ferr == nil) != (berr == nil) {
			t.Errorf("leaves %v: Footprint error %v, sjtree.Build error %v", leaves, ferr, berr)
		}
	}
}
