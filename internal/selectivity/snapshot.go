package selectivity

import "sort"

// CollectorState is a portable, plain-data snapshot of a Collector:
// every count keyed by type NAME rather than interned ID, so it can
// be serialized, moved across processes, and restored into a fresh
// collector whose interner assigns different IDs. The shard router's
// durable checkpoint carries one — its statistics are cumulative over
// the whole stream history, which no windowed log replay could
// rebuild, so a restart without them would decompose newly registered
// queries from near-empty histograms.
//
// All slices are sorted, so equal collectors snapshot to deeply equal
// states (stable bytes for content-addressed checkpoint metadata).
type CollectorState struct {
	EdgeTotal int64
	PathTotal int64
	// Edges is the 1-edge histogram by type name.
	Edges []TypeCount
	// Paths is the 2-edge path histogram; each key is the two
	// direction-aware incident types at the center vertex.
	Paths []PathCountState
	// Vertices holds the per-vertex incident direction-type counters
	// the incremental path update needs.
	Vertices []VertexCounts
}

// TypeCount is one 1-edge histogram row.
type TypeCount struct {
	Type string
	N    int64
}

// DirTypeCount is one incident direction-type counter row.
type DirTypeCount struct {
	Type string
	Dir  Dir
	N    int64
}

// PathCountState is one 2-edge path histogram row.
type PathCountState struct {
	A, B PathEnd
	N    int64
}

// PathEnd is one side of a 2-edge path key.
type PathEnd struct {
	Type string
	Dir  Dir
}

// VertexCounts is one vertex's incident direction-type counters.
type VertexCounts struct {
	Name     string
	Incident []DirTypeCount
}

// Snapshot captures the collector's full state.
func (c *Collector) Snapshot() *CollectorState {
	s := &CollectorState{EdgeTotal: c.edgeTotal, PathTotal: c.pathTotal}
	for t, n := range c.edgeCount {
		s.Edges = append(s.Edges, TypeCount{Type: c.types.Name(uint32(t)), N: n})
	}
	sort.Slice(s.Edges, func(i, j int) bool { return s.Edges[i].Type < s.Edges[j].Type })
	end := func(dt uint32) PathEnd {
		t, d := splitDirType(dt)
		return PathEnd{Type: c.types.Name(t), Dir: d}
	}
	c.eachPath(func(k PathKey, n int64) {
		s.Paths = append(s.Paths, PathCountState{A: end(k.A), B: end(k.B), N: n})
	})
	endLess := func(a, b PathEnd) bool {
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.Dir < b.Dir
	}
	sort.Slice(s.Paths, func(i, j int) bool {
		a, b := s.Paths[i], s.Paths[j]
		if a.A != b.A {
			return endLess(a.A, b.A)
		}
		return endLess(a.B, b.B)
	})
	names := make([]string, 0, len(c.vertIDs))
	for name := range c.vertIDs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cv := c.perVertex[c.vertIDs[name]]
		if len(cv) == 0 {
			continue
		}
		vc := VertexCounts{Name: name}
		for _, inc := range cv {
			t, d := splitDirType(inc.dt)
			vc.Incident = append(vc.Incident, DirTypeCount{Type: c.types.Name(t), Dir: d, N: inc.n})
		}
		sort.Slice(vc.Incident, func(i, j int) bool {
			a, b := vc.Incident[i], vc.Incident[j]
			return a.Type < b.Type || a.Type == b.Type && a.Dir < b.Dir
		})
		s.Vertices = append(s.Vertices, vc)
	}
	return s
}

// Restore builds a collector holding exactly the snapshot's state.
func (s *CollectorState) Restore() *Collector {
	c := NewCollector()
	c.edgeTotal = s.EdgeTotal
	c.pathTotal = s.PathTotal
	for _, e := range s.Edges {
		c.edgeCount[c.typeID(e.Type)] = e.N
	}
	for _, p := range s.Paths {
		a := dirType(c.typeID(p.A.Type), p.A.Dir)
		b := dirType(c.typeID(p.B.Type), p.B.Dir)
		c.pathCount[pathIndex(a, b)] += p.N
	}
	for _, vc := range s.Vertices {
		cv := make([]incident, 0, len(vc.Incident))
		for _, inc := range vc.Incident {
			cv = append(cv, incident{dt: dirType(c.typeID(inc.Type), inc.Dir), n: inc.N})
		}
		c.perVertex[c.vertex(vc.Name)] = cv
	}
	return c
}
