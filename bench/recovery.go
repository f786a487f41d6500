package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"streamgraph/internal/persist"
	"streamgraph/internal/shard"
	"streamgraph/internal/stream"
)

// recovery times cold restarts, each tier by the means it has. An
// engine tier loads an image saved mid-stream; a volatile router is
// rebuilt and fed the window that ends at the same point of the stream
// again; the durable router is opened on a fresh byte-identical copy of
// the data dir the stream left behind. The engine and volatile tiers
// restart once from every epoch of the stream, so that one window's
// content does not decide the figure; the durable tier has only the end
// of the stream to restart from.
type recovery struct {
	r *runner
	// points are the batch counts after which a restart state is taken.
	points  []int
	images  [][]byte
	dataDir string
	err     error
}

func newRecovery(r *runner) *recovery {
	rec := &recovery{r: r}
	if r.w.topo == topoDurable {
		// One state, the end of the stream, restarted from several times.
		rec.points = make([]int, durableRestarts)
		return rec
	}
	// One restart per epoch, a quarter into it (inside the dense half of
	// an LSBench epoch): what the system holds there depends on that
	// epoch alone, so every seed restarts from the same set of states.
	batches := (len(r.in.edges) + batchSize - 1) / batchSize
	for e := 0; e < r.in.epochs; e++ {
		rec.points = append(rec.points, max((4*e+1)*batches/(4*r.in.epochs), 1))
	}
	return rec
}

// each runs after every batch of the warm-up pass and saves an engine
// image at each recovery point. persist.Save first flushes deferred
// lazy work; the matches that produces are delivered like any other.
func (rec *recovery) each(s sut, b int) {
	if rec.err != nil || len(rec.images) == len(rec.points) || b+1 != rec.points[len(rec.images)] {
		return
	}
	var buf bytes.Buffer
	switch s := s.(type) {
	case *engineSUT:
		flushed, err := persist.Save(&buf, s.eng)
		for _, m := range flushed {
			s.sink.hashes = append(s.sink.hashes, s.hasher.hash(s.eng.Graph(), m))
		}
		rec.err = err
	case *multiSUT:
		rec.err = persist.SaveMulti(&buf, s.m)
	default:
		return
	}
	rec.images = append(rec.images, buf.Bytes())
}

// end runs when the warm-up pass is over and keeps a durable router's
// data dir.
func (rec *recovery) end(s sut) {
	if s, ok := s.(*routerSUT); ok {
		rec.dataDir = s.keepDir()
	}
}

func (rec *recovery) cleanup() {
	if rec.dataDir != "" {
		os.RemoveAll(rec.dataDir)
	}
}

// restart times one cold restart from recovery point i.
func (rec *recovery) restart(i int) (time.Duration, error) {
	r := rec.r
	switch r.w.topo {
	case topoEngine:
		t0 := time.Now()
		_, err := persist.Load(bytes.NewReader(rec.images[i]))
		return time.Since(t0), err
	case topoMulti:
		t0 := time.Now()
		_, err := persist.LoadMulti(bytes.NewReader(rec.images[i]))
		return time.Since(t0), err
	case topoShard, topoRemote:
		return rec.rebuild(windowEnding(r.in.edges, min(rec.points[i]*batchSize, len(r.in.edges)), r.in.window))
	default:
		return rec.reopen()
	}
}

// round makes one cold restart from every recovery point and returns
// the restart times in milliseconds: one row for bestOf. A restart
// takes milliseconds, so one collection or one stall of the host inside
// it would carry a mean; the rounds of a run lie seconds apart.
func (rec *recovery) round() ([]float64, error) {
	times := make([]float64, len(rec.points))
	for i := range rec.points {
		elapsed, err := rec.restart(i)
		if err != nil {
			return nil, fmt.Errorf("recovery from point %d: %w", i, err)
		}
		times[i] = float64(elapsed) / 1e6
	}
	return times, nil
}

// rebuild starts a fresh router and drives one window through it.
func (rec *recovery) rebuild(window []stream.Edge) (time.Duration, error) {
	r := rec.r
	r.sink.reset()
	t0 := time.Now()
	s, err := r.in.start(r.w.topo, &r.sink, nil, -1)
	if err != nil {
		return 0, err
	}
	defer s.release()
	for b, lo := 0, 0; lo < len(window); b, lo = b+1, lo+batchSize {
		s.offer(window[lo:min(lo+batchSize, len(window))], b)
	}
	s.finish()
	elapsed := time.Since(t0)
	r.res.Failed += s.failures()
	return elapsed, nil
}

// reopen opens a copy of the data dir: restart to ready.
func (rec *recovery) reopen() (time.Duration, error) {
	r := rec.r
	dir, err := copyDir(rec.dataDir, r.opt.tmpDir)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	router, _, err := shard.Open(r.in.durableConfig(dir))
	elapsed := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if len(router.Registered()) != len(r.in.queries) || router.EdgesRouted() != uint64(len(r.in.edges)) {
		r.res.Failed++ // the restart lost a registration or its place in the stream
	}
	done := make(chan struct{})
	go func() { defer close(done); router.Drain(nil) }()
	router.Close()
	<-done
	return elapsed, nil
}

// windowEnding is the part of edges[:end] that is inside the window
// when edge end-1 arrives: what a volatile tier must see again to be
// caught up at that point.
func windowEnding(edges []stream.Edge, end int, window int64) []stream.Edge {
	cut := edges[end-1].TS - window
	i := end
	for i > 0 && edges[i-1].TS > cut {
		i--
	}
	return edges[i:end]
}

// copyDir copies the regular files and directories under src into a new
// directory below parent.
func copyDir(src, parent string) (string, error) {
	dst, err := os.MkdirTemp(parent, "recover-")
	if err != nil {
		return "", err
	}
	err = filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		os.RemoveAll(dst)
		return "", err
	}
	return dst, nil
}
