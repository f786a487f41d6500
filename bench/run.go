package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

// options are the knobs of one run; the driver sets the first four.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// quick is the test size: 1/100 of the stream, one repetition.
	quick bool
	// outDir receives span dumps and the JSON document.
	outDir string
	// tmpDir is where durable routers keep their data dirs.
	tmpDir string
}

const (
	// setups is how often set-up is timed.
	setups = 5
	// minReps and maxReps bracket the measuring loop; in between, the
	// loop's share of -seconds decides. One turn of the loop is a
	// closed-loop repetition, recoveryPerRep rounds of cold restarts and,
	// until there are enough, a set-up: taking turns spreads the samples
	// of every figure over the loop's seconds, so that a noisy stretch of
	// the host (most last under ten seconds here) gets some of each and
	// all of none.
	minReps, maxReps = 3, 20
	recoveryPerRep   = 3
	loopShare        = 0.6
	// durableRestarts is the number of restarts per round on the durable
	// tier, which has one state to restart from (the other tiers restart
	// once per epoch).
	durableRestarts = 3
	// settle is how long a paced pass waits, after its last batch, for
	// a system that delivers on other goroutines to run empty (at a
	// quarter of its capacity its queues are near empty all along).
	settle = 100 * time.Millisecond
	// spinWindow is the last stretch before a batch is due that the
	// generator of a paced pass spends yielding in a loop instead of
	// asleep: a sleep in a virtual machine overshoots by up to a
	// millisecond, which would otherwise be most of a sub-millisecond lag.
	spinWindow = time.Millisecond
	// pacedShare is the most one paced pass may take of -seconds: it
	// covers the whole stream where that fits (every workload at 15 s),
	// because a prefix holds whichever epochs the seed put first.
	pacedShare = 0.45
	// A run of -seconds 15 takes 16 to 25 s on a quiet host. Everything
	// but the measuring loop is a fixed amount of work, so a host that
	// withholds most of its CPU stretches a run several times over. Past
	// lateFactor x -seconds the loop stops after the turn it is in and
	// the second paced pass is left out; past overdueFactor x -seconds a
	// paced pass stops offering and is checked on the prefix it got
	// through. A run that is still going after watchdogLimit is hung: the
	// driver would stop it at 180 s without a word, so it says where it
	// hangs and exits.
	lateFactor, overdueFactor = 1.8, 4.0
	watchdogLimit             = 170 * time.Second
)

// runner carries one workload through one run.
type runner struct {
	w      workload
	opt    options
	start  time.Time
	in     *inputs
	oracle *replayResult
	sink   sink
	tr     *tracer
	res    workloadResult
}

func runWorkload(w workload, opt options) (workloadResult, error) {
	start := time.Now()
	r := &runner{w: w, opt: opt, start: start}
	r.res.Workload = w.name
	watchdog := time.AfterFunc(watchdogLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: workload %s still running after %v; goroutines:\n", w.name, watchdogLimit)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := os.MkdirAll(opt.tmpDir, 0o755); err != nil {
		return r.res, err
	}
	var err error
	if opt.trace {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	r.stopWorker()
	r.res.WallS = time.Since(start).Seconds()
	if err != nil {
		return r.res, fmt.Errorf("workload %s: %w", w.name, err)
	}
	return r.res, nil
}

// late reports whether the run has used up its allowance and should
// stop repeating; overdue, whether it should cut short even a pass.
func (r *runner) late() bool { return r.past(lateFactor) }

func (r *runner) overdue() bool { return r.past(overdueFactor) }

func (r *runner) past(factor float64) bool {
	return !r.opt.quick && time.Since(r.start).Seconds() > factor*r.opt.seconds
}

func (r *runner) stopWorker() {
	if r.in != nil {
		r.in.stopWorker()
	}
}

func (in *inputs) stopWorker() {
	if in.worker != nil {
		in.worker.stop()
		in.worker = nil
	}
}

// setup is everything up to the first timed edge: dataset generation,
// statistics training on the first 20% of the stream, query parsing,
// and building the workload's system once, which covers decomposition,
// registration and listener or data-dir creation. It returns the inputs
// and the seconds they took to make.
func (r *runner) setup() (*inputs, float64, error) {
	sw := startWatch()
	in := &inputs{w: r.w, tmp: r.opt.tmpDir}
	in.edges, in.epochs = r.w.dataset(r.opt.seed, r.opt.quick)
	if len(in.edges) < batchSize {
		return nil, 0, fmt.Errorf("stream of %d edges is shorter than one batch", len(in.edges))
	}
	in.window = r.w.window(in.edges)
	in.stats = selectivity.NewCollector()
	id := r.tr.begin("selectivity.collect", -1)
	in.stats.AddAll(in.edges[:len(in.edges)/5])
	r.tr.end(id)
	var err error
	if in.queries, err = r.w.parse(); err != nil {
		return nil, 0, err
	}
	s, err := in.start(r.w.topo, &sink{}, nil, -1)
	if err != nil {
		return nil, 0, err
	}
	quiet, _, _ := sw.stop()
	s.finish()
	s.release()
	return in, quiet.Seconds(), nil
}

// prepare runs the oracle and sizes the sink so that no repetition
// grows it: the buffers belong to the benchmark, and are allocated
// before any heap baseline is taken.
func (r *runner) prepare(parent int32) error {
	var err error
	if r.oracle, err = runReplay(r.in, r.tr, parent); err != nil {
		return err
	}
	r.res.Ops = int64(len(r.oracle.hashes))
	r.sink.hashes = make([]uint64, 0, len(r.oracle.hashes)+1024)
	r.sink.lags = make([]int64, 0, len(r.oracle.hashes)+len(r.in.edges)+1024)
	r.sink.lagSeq = make([]int32, 0, cap(r.sink.lags))
	return nil
}

// check holds what the sink received against the oracle of the offered
// prefix and adds the system's own failures.
func (r *runner) check(offered int, s sut) {
	want := r.oracle.prefix(offered)
	r.res.Attempted += int64(len(want))
	r.res.Failed += multisetDiff(want, r.sink.hashes) + s.failures()
}

// closedOutcome is one closed-loop pass.
type closedOutcome struct {
	edges      int
	quiet      time.Duration // wall time a quiet host would have shown
	stealShare float64
	mallocs    uint64
}

func (o closedOutcome) edgesPerSecond() float64 { return float64(o.edges) / o.quiet.Seconds() }

// closedPass builds a fresh system and offers it the stream in 512-edge
// batches, each as soon as the previous call returns. The clock runs
// from the first batch offered to the last match delivered: for a
// router that is when Close and the consumer have returned, so backlog
// counts. each (may be nil) runs after every batch: the untimed warm-up
// saves engine images there. inspect (may be nil) sees the system before
// it is released.
func (r *runner) closedPass(topo topology, edges []stream.Edge, tr *tracer, each func(s sut, batch int), inspect func(sut)) (closedOutcome, error) {
	r.sink.reset()
	runtime.GC()
	parent := tr.begin("pass.closed."+topo.String(), -1)
	s, err := r.in.start(topo, &r.sink, tr, parent)
	if err != nil {
		return closedOutcome{}, err
	}
	defer s.release()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	sw := startWatch()
	for b, lo := 0, 0; lo < len(edges); b, lo = b+1, lo+batchSize {
		s.offer(edges[lo:min(lo+batchSize, len(edges))], b)
		if each != nil {
			each(s, b)
		}
	}
	s.finish()
	out := closedOutcome{edges: len(edges)}
	out.quiet, _, out.stealShare = sw.stop()
	runtime.ReadMemStats(&ms)
	out.mallocs = ms.Mallocs - mallocs
	tr.end(parent)
	r.check(len(edges), s)
	if inspect != nil {
		inspect(s)
	}
	return out, nil
}

// pacedOutcome is one open-loop pass.
type pacedOutcome struct {
	// late holds, per batch, how long after its due time the generator
	// got to offer it: sleep overshoot plus time blocked in earlier
	// offers.
	late []int64
	// retainedMB is the heap the system holds at the end of the stream.
	retainedMB float64
	interval   time.Duration
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// pacedPass offers batch b at t0 + b*512/rate whatever the system does
// (open loop). Lag samples land in r.sink.lags. When the last batch is
// in, and an asynchronous system has had time to run empty, it takes
// the retained heap: live bytes after a forced collection, system still
// live, less the live bytes before the system was built (the stream and
// the benchmark's own buffers).
func (r *runner) pacedPass(topo topology, edges []stream.Edge, rate int, tr *tracer, inspect func(sut)) (pacedOutcome, error) {
	r.sink.reset()
	out := pacedOutcome{
		late:     make([]int64, 0, len(edges)/batchSize+1),
		interval: time.Duration(float64(batchSize) / float64(rate) * float64(time.Second)),
	}
	base := heapAlloc()
	parent := tr.begin("pass.paced."+topo.String(), -1)
	s, err := r.in.start(topo, &r.sink, tr, parent)
	if err != nil {
		return out, err
	}
	defer s.release()
	t0 := time.Now()
	r.sink.t0, r.sink.interval = t0, out.interval
	r.sink.paced.Store(true)
	for b, lo := 0, 0; lo < len(edges); b, lo = b+1, lo+batchSize {
		if b > 0 && r.overdue() {
			edges = edges[:lo]
			break
		}
		due := time.Duration(b) * out.interval
		if wait := due - time.Since(t0); wait > spinWindow {
			time.Sleep(wait - spinWindow)
		}
		for time.Since(t0) < due {
			runtime.Gosched()
		}
		out.late = append(out.late, int64(time.Since(t0)-due))
		s.offer(edges[lo:min(lo+batchSize, len(edges))], b)
	}
	if s.async() {
		time.Sleep(settle)
	}
	r.sink.paced.Store(false)
	if live := heapAlloc(); live > base {
		out.retainedMB = float64(live-base) / (1 << 20)
	}
	s.finish()
	tr.end(parent)
	r.check(len(edges), s)
	if inspect != nil {
		inspect(s)
	}
	return out, nil
}

// epochLags groups the lags of the paced pass just made by the epoch
// their edge lies in and returns each epoch's p-th percentile in
// milliseconds (NaN for an epoch the pass did not reach). The pool holds
// the same epochs for every seed, so the epochs' percentiles are the
// same figures in another order, and their median is steady where the
// percentile of the whole pass is not: over ten seeds the 99th
// percentile of the whole pass spread by 12-43%.
func (r *runner) epochLags(p float64) []float64 {
	epoch := make([]int32, len(r.sink.lagSeq))
	for i, seq := range r.sink.lagSeq {
		epoch[i] = int32(int64(seq) * int64(r.in.epochs) / int64(len(r.in.edges)))
	}
	out := groupPercentile(r.sink.lags, epoch, r.in.epochs, p)
	for i := range out {
		out[i] /= 1e6
	}
	return out
}

// pacedEdges is the prefix a paced pass of the given rate covers in its
// share of -seconds, in whole batches.
func (r *runner) pacedEdges(rate int) int {
	n := len(r.in.edges)
	if !r.opt.quick {
		n = min(n, int(float64(rate)*r.opt.seconds*pacedShare))
	}
	return max(n/batchSize, 1) * batchSize
}

func (o pacedOutcome) latePercentile(p float64) time.Duration {
	late := append([]int64(nil), o.late...)
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	return time.Duration(percentile(late, p))
}

// unsustainable reports whether the generator of a paced pass ran more
// than one batch interval late at the median.
func (o pacedOutcome) unsustainable() bool { return o.latePercentile(50) > o.interval }

func (o pacedOutcome) lateP99MS() float64 { return float64(o.latePercentile(99)) / 1e6 }

func (r *runner) untraced() error {
	var err error
	var first float64
	if r.in, first, err = r.setup(); err != nil {
		return err
	}
	setupS := []float64{first}
	if err := r.prepare(-1); err != nil {
		return err
	}

	// The warm-up repetition is not timed; the recovery rounds restart
	// from what it leaves behind.
	rec := newRecovery(r)
	defer rec.cleanup()
	if _, err := r.closedPass(r.w.topo, r.in.edges, nil, rec.each, rec.end); err != nil {
		return err
	}
	if rec.err != nil {
		return fmt.Errorf("save image: %w", rec.err)
	}

	// Two paced passes, one before and one after the measuring loop, so
	// that a noisy stretch of the host has to last the whole run to be in
	// both; bestOf keeps each epoch's quieter pass.
	var lagP50, lagP95 [][]float64
	var retainedMB float64
	pacedPass := func() error {
		paced, err := r.pacedPass(r.w.topo, r.in.edges[:r.pacedEdges(r.w.pacedRate)], r.w.pacedRate, nil, nil)
		if err != nil {
			return err
		}
		if late := paced.lateP99MS(); len(lagP50) == 0 || late < r.res.GenLateP99MS {
			r.res.GenLateP99MS, r.res.Unsustainable = late, paced.unsustainable()
		}
		lagP50, lagP95 = append(lagP50, r.epochLags(50)), append(lagP95, r.epochLags(95))
		retainedMB = paced.retainedMB
		return nil
	}
	if err := pacedPass(); err != nil {
		return err
	}

	var edgesPerS, allocs []float64
	var recovery [][]float64
	var steal float64
	budget := time.Duration(r.opt.seconds * loopShare * float64(time.Second))
	start := time.Now()
	for rep := 0; rep < maxReps; rep++ {
		if rep >= 1 && (r.opt.quick || r.late()) || rep >= minReps && time.Since(start) >= budget {
			break
		}
		out, err := r.closedPass(r.w.topo, r.in.edges, nil, nil, nil)
		if err != nil {
			return err
		}
		edgesPerS = append(edgesPerS, out.edgesPerSecond())
		allocs = append(allocs, float64(out.mallocs)/float64(out.edges))
		steal += out.stealShare
		for i := 0; i < recoveryPerRep && !(r.opt.quick && i > 0); i++ {
			round, err := rec.round()
			if err != nil {
				return err
			}
			recovery = append(recovery, round)
		}
		if len(setupS) < setups && !r.opt.quick {
			again, s, err := r.setup()
			if err != nil {
				return err
			}
			again.stopWorker()
			setupS = append(setupS, s)
		}
	}
	r.res.Repetitions = len(edgesPerS)
	r.res.StealShare = steal / float64(len(edgesPerS))

	if !r.opt.quick && !r.late() {
		if err := pacedPass(); err != nil {
			return err
		}
	}

	recoveryRounds := make([]float64, len(recovery))
	for i, round := range recovery {
		recoveryRounds[i] = median(round)
	}

	// Every time and rate is the best of its repetitions (see bestOf);
	// the samples beside it say how far the repetitions lay apart. The
	// lags and the heap have no samples but themselves: the epochs'
	// figures differ by design, so their spread would not be a noise
	// figure.
	type figure struct {
		value   float64
		samples []float64
	}
	single := func(v float64) figure { return figure{v, []float64{v}} }
	figures := map[string]figure{
		"edges_per_s":      {slices.Max(edgesPerS), edgesPerS},
		"match_lag_p50_ms": single(bestOf(lagP50)),
		"match_lag_p95_ms": single(bestOf(lagP95)),
		"allocs_per_edge":  {median(allocs), allocs},
		"retained_heap_mb": single(retainedMB),
		"recovery_ms":      {bestOf(recovery), recoveryRounds},
		"setup_s":          {slices.Min(setupS), setupS},
	}
	for _, def := range endToEnd {
		f := figures[def.Name]
		r.res.EndToEnd = append(r.res.EndToEnd, newMetric(def, f.value, f.samples...))
	}
	return nil
}
