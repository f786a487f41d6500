package main

import (
	"fmt"
	"time"

	"streamgraph/internal/decompose"
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/sjtree"
)

// replayResult is what the eager stage replay leaves behind: the oracle
// every repetition is checked against, and the time and counts of each
// stage driven in isolation.
type replayResult struct {
	// hashes holds one hash per complete match, in emission order. The
	// replay is eager, so a match is emitted in the batch of its last
	// edge and hashes[:batchEnd[b]] is the oracle of the stream prefix
	// that ends with batch b.
	hashes   []uint64
	batchEnd []int

	graphAdd, graphExpire, isoSearch, treeInsert, treeExpire time.Duration

	isoSteps, leafMatches int64
	liveEdgesPeak         int
	tree                  sjtree.Stats // summed over the queries; PeakStored summed too
}

// prefix returns the oracle of the first n edges.
func (r *replayResult) prefix(n int) []uint64 {
	if n <= 0 {
		return nil
	}
	b := (n+batchSize-1)/batchSize - 1
	if b >= len(r.batchEnd) {
		b = len(r.batchEnd) - 1
	}
	return r.hashes[:r.batchEnd[b]]
}

// stageTotal is the sum of the five replayed stages.
func (r *replayResult) stageTotal() time.Duration {
	return r.graphAdd + r.graphExpire + r.isoSearch + r.treeInsert + r.treeExpire
}

// replayQuery is one query's share of the pipeline over the shared graph.
type replayQuery struct {
	hasher  queryHasher
	matcher *iso.Matcher
	tree    *sjtree.Tree
}

// candidate is one anchored leaf match waiting for the insert stage.
type candidate struct {
	query, leaf int
	m           iso.Match
}

// runReplay drives graph -> iso -> sjtree as an eager, batch-staged
// pipeline composed here from public calls: one shared graph, and per
// query a 1-edge decomposition, a matcher and an SJ-Tree. Per 512-edge
// batch it (1) expires the graph and the trees against the window, (2)
// adds the batch to the graph, (3) searches every leaf around every new
// edge with the matcher's MaxSeq pinned to that edge, which shows each
// search the graph a one-edge-at-a-time run would have seen, and (4)
// inserts the candidates in arrival order. Staging is what lets a stage
// be timed per batch instead of per call.
func runReplay(in *inputs, tr *tracer, parent int32) (*replayResult, error) {
	g := graph.New()
	qs := make([]replayQuery, len(in.queries))
	for i, pq := range in.queries {
		leaves, err := decompose.SingleDecompose(pq.q, in.stats)
		if err != nil {
			return nil, fmt.Errorf("replay: decompose %s: %w", pq.name, err)
		}
		tree, err := sjtree.Build(pq.q, leaves, in.window)
		if err != nil {
			return nil, fmt.Errorf("replay: build %s: %w", pq.name, err)
		}
		m := iso.NewMatcher(g, pq.q)
		m.Window = in.window
		m.Pool = tree.Pool()
		qs[i] = replayQuery{hasher: newQueryHasher(pq.name, pq.q), matcher: m, tree: tree}
	}

	res := &replayResult{}
	var (
		des      = make([]graph.Edge, 0, batchSize)
		cands    []candidate
		complete []candidate // query index + complete match; leaf unused
		curQuery int
	)
	emit := func(m iso.Match) { complete = append(complete, candidate{query: curQuery, m: m}) }
	timed := func(name string, total *time.Duration, batchSpan int32, fn func()) {
		id := tr.begin(name, batchSpan)
		t0 := time.Now()
		fn()
		*total += time.Since(t0)
		tr.end(id)
	}

	for lo := 0; lo < len(in.edges); lo += batchSize {
		hi := min(lo+batchSize, len(in.edges))
		batch := in.edges[lo:hi]
		batchSpan := tr.begin("replay.batch", parent)

		if in.window > 0 && g.NumEdges() > 0 {
			cutoff := g.LastTS() - in.window + 1
			timed("graph.expire", &res.graphExpire, batchSpan, func() { g.ExpireBefore(cutoff) })
			timed("sjtree.expire", &res.treeExpire, batchSpan, func() {
				for i := range qs {
					qs[i].tree.ExpireBefore(cutoff)
				}
			})
		}

		timed("graph.add", &res.graphAdd, batchSpan, func() {
			des = des[:0]
			for _, se := range batch {
				id := g.AddEdgeNamed(se.Src, se.SrcLabel, se.Dst, se.DstLabel, se.Type, se.TS)
				de, _ := g.Edge(id)
				des = append(des, de)
			}
		})
		res.liveEdgesPeak = max(res.liveEdgesPeak, g.NumEdges())

		timed("iso.search", &res.isoSearch, batchSpan, func() {
			cands = cands[:0]
			for _, de := range des {
				for qi := range qs {
					q := &qs[qi]
					q.matcher.MaxSeq = de.Seq
					for l := 0; l < q.tree.NumLeaves(); l++ {
						found := 0
						q.matcher.FindAroundEdgeFunc(q.tree.LeafEdges(l), de, func(m iso.Match) bool {
							cands = append(cands, candidate{query: qi, leaf: l, m: q.matcher.Retain(m)})
							found++
							return in.w.matchCap <= 0 || found < in.w.matchCap
						})
					}
				}
			}
		})
		res.leafMatches += int64(len(cands))

		timed("sjtree.insert", &res.treeInsert, batchSpan, func() {
			complete = complete[:0]
			for _, c := range cands {
				curQuery = c.query
				qs[c.query].tree.Insert(c.leaf, c.m, emit, nil)
			}
		})

		// Outside every stage: identify the complete matches, then hand
		// their arrays back so the pool stays as warm as an engine's.
		for _, c := range complete {
			res.hashes = append(res.hashes, qs[c.query].hasher.hash(g, c.m))
			qs[c.query].tree.Release(c.m)
		}
		res.batchEnd = append(res.batchEnd, len(res.hashes))
		tr.end(batchSpan)
	}

	for i := range qs {
		res.isoSteps += qs[i].matcher.Calls()
		st := qs[i].tree.Stats()
		res.tree.Inserted += st.Inserted
		res.tree.JoinsAttempted += st.JoinsAttempted
		res.tree.JoinsSucceeded += st.JoinsSucceeded
		res.tree.Emitted += st.Emitted
		res.tree.PeakStored += st.PeakStored
		res.tree.Evicted += st.Evicted
		res.tree.ExpireScanned += st.ExpireScanned
	}
	return res, nil
}
