// Durable runtime: checkpoint rounds and crash recovery. A Router
// opened with Open (instead of New) appends every admitted batch to a
// segment-backed edge log (internal/edlog) and periodically commits a
// checkpoint round: fsync the log, serialize every local slot's
// engine, wait for the collection channel's consumer to catch up, and
// atomically publish the router's own registry (router.meta). A crash
// at any point restarts from the last committed round plus the log
// tail — never from scratch, never from a state a caller could have
// observed as durable and then lost.
//
// Round structure (checkpointRound, under ingestMu):
//
//  1. Ask every remote slot for an engine snapshot (async, best
//     effort; the snapshot's arrival is what retires the slot's
//     reconnect-replay entitlement and lets the log pins advance —
//     remote.go's adoptSnapshotLocked).
//  2. Fsync the durable log: every edge the round will cover is on
//     disk before any state that acknowledges it.
//  3. Checkpoint each local slot at the current stream position, to a
//     .pending file. The request rides the slot's FIFO queue, so the
//     engine serializes at a message boundary with every prior batch
//     applied — but the file stays invisible until step 6b publishes
//     it, AFTER the delivery barrier: a visible slot checkpoint must
//     never be newer than the round it committed with, or recovery
//     would skip replaying edges whose matches were emitted by the
//     crashed process but never consumed.
//  4. Capture the remote pins (snapshot cover, oldest unacked batch),
//     BEFORE the delivery barrier's target — so an edge acknowledged
//     during the barrier cannot be unpinned by this round while its
//     matches are uncounted.
//  5. Delivery barrier: wait until the consumer has processed every
//     match emitted so far (Drain's consumed counter). A committed
//     round therefore never covers a match the consumer's callback has
//     not completed — a restart re-emits only matches past the
//     barrier, bounding the at-least-once window.
//  6. Commit router.meta (temp file, fsync, rename), then publish the
//     pending slot checkpoints by renaming them into place. Publishing
//     after the barrier and the meta commit is what makes each slot's
//     "replay from my own checkpoint seq" safe (see step 3).
//  7. Trim the durable log: drop sealed segments that are outside the
//     window and covered by every pin (round seq, remote covers,
//     remote unacked bases, in-flight registration floors).
//
// Recovery (Open) is the reverse: open the log (truncating a torn
// tail write to the last record boundary), load router.meta and each
// slot-<i>.ckpt, reconcile the registry (see the comment at the
// reconciliation loop), rebuild the in-memory log, then
// replay each slot's own tail — every log record past that slot's
// checkpoint — through the normal worker pipeline, and commit a fresh
// round so the next crash recovers from here. Matches regenerated by
// the replay are returned to the caller (delivery across a crash is
// at-least-once; exactly-once within a process lifetime).
package shard

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"streamgraph/internal/dshard"
	"streamgraph/internal/edlog"
	"streamgraph/internal/persist"
	"streamgraph/internal/query"
	"streamgraph/internal/stream"
)

// Open starts a durable router on Config.DataDir, recovering whatever
// a previous process left there (an empty or absent directory is a
// cold start). It returns the matches regenerated while replaying the
// log tail into the recovered engines — re-deliveries of matches the
// previous process may already have emitted after its last checkpoint
// (at-least-once across a crash); later matches arrive through Drain
// as usual. Durable mode is incompatible with Config.Ordered: a
// restart replays in completion order, and the deterministic merge
// cannot suppress re-deliveries.
//
// The recovery barrier at the end of Open commits a fresh checkpoint
// round, so opening a directory is itself a durable point: a crash
// immediately after Open recovers to exactly the returned state.
func Open(cfg Config) (*Router, []Match, error) {
	if cfg.DataDir == "" {
		return nil, nil, fmt.Errorf("shard: Open requires Config.DataDir (use New for a volatile runtime)")
	}
	if cfg.Ordered {
		return nil, nil, fmt.Errorf("shard: durable mode is incompatible with Config.Ordered (a restart re-emits matches in completion order)")
	}
	r := newRouter(cfg)
	dl, err := edlog.Open(filepath.Join(r.cfg.DataDir, "edgelog"), r.cfg.SegmentBytes)
	if err != nil {
		return nil, nil, err
	}
	r.dlog = dl
	r.dregs = make(map[string]metaReg)
	// Durable-log footprint gauges. The funcs take ingestMu via
	// LogStats; Registry.Snapshot evaluates them without holding the
	// registry lock, so the lock order is always ingestMu-last.
	r.tel.reg.GaugeFunc("sg_edlog_segments", func() int64 { return int64(r.LogStats().Segments) })
	r.tel.reg.GaugeFunc("sg_edlog_disk_bytes", func() int64 { return r.LogStats().DiskBytes })
	r.tel.reg.GaugeFunc("sg_edlog_first_seq", func() int64 { return int64(r.LogStats().FirstSeq) })
	r.tel.reg.GaugeFunc("sg_edlog_end_seq", func() int64 { return int64(r.LogStats().EndSeq) })
	fail := func(err error) (*Router, []Match, error) {
		dl.Close()
		return nil, nil, err
	}

	meta, err := readMetaFile(filepath.Join(r.cfg.DataDir, "router.meta"))
	if err != nil {
		return fail(err)
	}
	end := dl.EndSeq()
	var metaSeq uint64
	if meta != nil {
		metaSeq = meta.ckptSeq
		if end < metaSeq {
			return fail(fmt.Errorf("shard: edge log ends at seq %d but the checkpoint covers %d (log segments deleted?)", end, metaSeq))
		}
	}
	r.seq.Store(end)
	r.ckptSeq = metaSeq

	// Read the retained records once (Replay re-validates every CRC);
	// they feed the in-memory log — the window a registration after the
	// restart decomposes from, as it would have before the crash — and
	// each local slot's replay. The decoded slices are freshly
	// allocated, so retaining them in the in-memory log is safe.
	var records []logBatch
	if err := dl.Replay(func(edges []stream.Edge, baseSeq uint64) error {
		records = append(records, logBatch{edges: edges, base: baseSeq})
		return nil
	}); err != nil {
		return fail(err)
	}
	for _, rec := range records {
		r.log.Append(rec.edges, rec.base)
	}

	// Load the local slot checkpoints. Stray staging files (a crash
	// between a worker's write and the round's publish rename) are dead:
	// every round stages afresh before renaming.
	nLocal := len(r.workers) - len(r.cfg.Remotes)
	slots := make([]*slotCkpt, nLocal)
	loadStart := time.Now()
	for i := 0; i < nLocal; i++ {
		path := slotPath(r.cfg.DataDir, i)
		r.workers[i].file = path
		os.Remove(path + ".pending")
		os.Remove(path + ".pending.tmp")
		s, err := readSlotFile(path)
		if err != nil {
			return fail(err)
		}
		if s != nil && s.ckptSeq > metaSeq {
			return fail(fmt.Errorf("shard: slot %d checkpoint at seq %d is ahead of the committed round %d (slot files are published only after the meta commit)", i, s.ckptSeq, metaSeq))
		}
		slots[i] = s
	}
	// What reading and decoding the slot checkpoints cost this restart.
	r.tel.reg.Gauge("sg_recovery_load_ns").Set(int64(time.Since(loadStart)))

	// Reconcile the registry. A round publishes the slot files after
	// the meta commit, so a mid-round crash leaves slots one round
	// OLDER than the meta. A meta registration missing from its slot's
	// checkpoint means the crash fell between a register's meta commit
	// and the slot publish — Register had not returned, and the
	// surviving engine image predates the query: drop the
	// registration. A slot engine carrying a query the meta does not
	// know means the crash fell between an unregister's meta commit
	// and the slot publish — Unregister had not returned, and the
	// committed meta says it happened: unregister it from the
	// recovered engine. Registrations on remote slots have no slot
	// file and trust the meta alone (the same crash windows exist,
	// with the same not-yet-returned calls).
	//
	// A slot the meta records as retired is retired again before anything
	// runs: its queue closed, never dialled, pinning nothing — so
	// placement cannot pick it — and no registration may name it.
	if meta != nil {
		for _, id := range meta.retired {
			if id < 0 || id >= len(r.workers) {
				return fail(fmt.Errorf("shard: checkpoint retires slot %d but the topology has %d slots (Shards/Remotes must not change on a durable data dir)", id, len(r.workers)))
			}
			r.retireLocked(r.workers[id])
		}
	}
	kept := make([]metaReg, 0, len(metaRegsOf(meta)))
	keptBySlot := make(map[int]map[string]bool)
	for _, reg := range metaRegsOf(meta) {
		if reg.slot < 0 || reg.slot >= len(r.workers) {
			return fail(fmt.Errorf("shard: checkpoint registers %q on slot %d but the topology has %d slots (Shards/Remotes must not change on a durable data dir)", reg.name, reg.slot, len(r.workers)))
		}
		if r.workers[reg.slot].retired {
			return fail(fmt.Errorf("shard: checkpoint registers %q on retired slot %d", reg.name, reg.slot))
		}
		if reg.slot < nLocal {
			if slots[reg.slot] == nil {
				return fail(fmt.Errorf("shard: checkpoint registers %q on slot %d but slot-%d.ckpt is missing", reg.name, reg.slot, reg.slot))
			}
			if _, live := slots[reg.slot].ranks[reg.name]; !live {
				// Two crash windows look identical from this slot's
				// file: a register whose slot publish never landed (the
				// call never returned — drop it), and a migration whose
				// round committed the new slot assignment in the meta
				// but crashed before the slot publishes (the query's
				// state survives in the OLD slot's file — re-home it
				// there, so it recovers on exactly one slot instead of
				// vanishing). The slot files distinguish them: a
				// migration leaves the state in some other slot's
				// checkpoint; a never-returned register leaves it
				// nowhere.
				found := -1
				for j := 0; j < nLocal; j++ {
					if j == reg.slot || slots[j] == nil {
						continue
					}
					if _, ok := slots[j].ranks[reg.name]; ok {
						found = j
						break
					}
				}
				if found < 0 {
					continue // register's slot publish never landed; the call never returned
				}
				reg.slot = found
			}
		}
		kept = append(kept, reg)
		if keptBySlot[reg.slot] == nil {
			keptBySlot[reg.slot] = make(map[string]bool)
		}
		keptBySlot[reg.slot][reg.name] = true
	}
	for i := 0; i < nLocal; i++ {
		if slots[i] == nil {
			continue
		}
		for name := range slots[i].ranks {
			if !keptBySlot[i][name] {
				slots[i].eng.Unregister(name)
			}
		}
	}

	// Rebuild the router-side bookkeeping from the surviving
	// registrations, in rank order — each admitted as Register admits it
	// live (Router.admit), so gates, refcounts and post-filters come out
	// identical to the crashed router's. The estimated costs are not in
	// router.meta: they are derived again below, from the recovered
	// window and the pinned leaves.
	maxRank := -1
	ranks := make([]map[string]int, nLocal) // what each recovered slot engine holds
	post := make([]message, nLocal)         // each local slot's last stamp: its restored filter
	for i := range ranks {
		ranks[i] = make(map[string]int)
		post[i].postUniversal = !r.filtering
	}
	for _, reg := range kept {
		w := r.workers[reg.slot]
		q, err := query.Parse(reg.query)
		if err != nil {
			return fail(fmt.Errorf("shard: checkpoint query %q: %w", reg.name, err))
		}
		r.own(reg.name, w, &queryCost{q: q, leaves: reg.cfg.Leaves})
		if reg.rank > maxRank {
			maxRank = reg.rank
		}
		r.dregs[reg.name] = reg
		msg := message{kind: msgRegister, name: reg.name, q: q, cfg: reg.cfg, rank: reg.rank, minTS: math.MinInt64}
		r.admit(w, &msg, fprint{types: reg.fpTypes, exact: reg.fpExact})
		// A remote worker is stateless across our restart and its
		// snapshot lived only in the crashed router's memory, so a slot
		// that keeps a replay entitlement starts from this synthetic
		// register event at seq 0 with an unbounded window floor: the
		// reconnect replay re-registers the query and feeds it the whole
		// retained log (which the durable trim kept exactly as far back as
		// any remote needs). The MinInt64 floor is self-limiting — the
		// first post-reconnect checkpoint snapshot retires the event and
		// the pin advances. Every slot pairs a later unregister with it.
		w.noteControl(&msg)
		if reg.slot < nLocal {
			ranks[reg.slot][reg.name] = reg.rank
			post[reg.slot] = msg
		}
	}
	r.rank = maxRank + 1
	r.refreshCosts()
	for i, s := range slots {
		if s == nil {
			continue // no checkpoint, hence no registration: the slot stays fresh
		}
		// Install the recovered engine. Its filter is universal (persist
		// contract): apply the reconciled footprint and trim what the
		// dropped registrations no longer reach.
		w := r.workers[i]
		w.slot = dshard.RestoredSlot(s.eng, s.lastEnd, ranks[i], post[i].postUniversal, post[i].postTypes)
		w.slot.Eng.TrimReplica()
	}

	r.start()

	// Temporary drainer: the recovery replay must flow like live
	// traffic (bounded queues, delivery barrier), and Open's caller
	// cannot be running Drain yet. Collected matches are returned, as
	// copies: the blocks go back to the free list like Drain's.
	stop := make(chan struct{})
	collected := make(chan []Match, 1)
	go func() {
		var ms []Match
		for {
			select {
			case b, ok := <-r.out:
				if !ok {
					collected <- ms
					return
				}
				r.release(len(b.matches))
				for _, m := range b.matches {
					ms = append(ms, m.Clone())
				}
				r.consume(b)
			case <-stop:
				collected <- ms
				return
			}
		}
	}()

	// Replay each local slot's own tail — every record past that
	// slot's checkpoint — straight into its queue. No gate: the
	// engine's replica filter drops what the footprint excludes, and a
	// record is one original ingest batch, so the engines see the
	// exact batch boundaries (and eviction schedule) of the first run.
	// Remote slots get nothing here: their entitlement replays over
	// the wire from the synthetic events and the in-memory log.
	var replayTotal int64
	for i := 0; i < nLocal; i++ {
		w := r.workers[i]
		if w.retired {
			continue
		}
		lo := uint64(0)
		if slots[i] != nil {
			lo = slots[i].ckptSeq
		}
		for _, rec := range records {
			if rec.base+uint64(len(rec.edges)) <= lo {
				continue
			}
			edges, base := rec.edges, rec.base
			if base < lo {
				edges, base = edges[lo-base:], lo
			}
			replayTotal += int64(len(edges))
			w.edgesRouted.Add(int64(len(edges)))
			w.in <- message{kind: msgEdges, edges: edges, baseSeq: base}
		}
	}
	// How many log records this recovery pushed back through the
	// pipeline — the cost a restart paid beyond loading checkpoints.
	r.tel.reg.Gauge("sg_recovery_replay_edges").Set(replayTotal)

	// Recovery barrier: one full round. Its slot checkpoints ride the
	// queues behind every replayed record and its delivery barrier
	// waits for the drainer, so when it commits, the recovered state —
	// replay included — is durable at seq end.
	r.ingestMu.Lock()
	r.checkpointRound()
	err = r.persistErr
	r.ingestMu.Unlock()
	close(stop)
	recovered := <-collected
	if err != nil {
		go r.Drain(nil)
		r.Close()
		return nil, nil, err
	}
	return r, recovered, nil
}

// metaRegsOf unwraps a possibly-nil meta's registrations (rank order;
// writeMeta sorts).
func metaRegsOf(meta *routerMeta) []metaReg {
	if meta == nil {
		return nil
	}
	return meta.regs
}

// LogStats is the durable edge log's on-disk footprint.
type LogStats struct {
	// Segments and DiskBytes count the retained segment files.
	Segments  int
	DiskBytes int64
	// FirstSeq..EndSeq is the retained record range: FirstSeq only
	// advances as checkpoints retire replay entitlements, so EndSeq -
	// FirstSeq is the live replay span a restart (or remote rebuild)
	// pays for.
	FirstSeq, EndSeq uint64
}

// LogStats reports the durable log's footprint (zero when the router
// was built with New).
func (r *Router) LogStats() LogStats {
	if r.dlog == nil {
		return LogStats{}
	}
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	return LogStats{
		Segments:  r.dlog.Segments(),
		DiskBytes: r.dlog.DiskBytes(),
		FirstSeq:  r.dlog.FirstSeq(),
		EndSeq:    r.dlog.EndSeq(),
	}
}

// PersistErr reports the first durable-write failure, if any. Once
// set, appends and checkpoint rounds stop (the stream keeps flowing
// in-memory) and the data dir stays at its last committed round.
func (r *Router) PersistErr() error {
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	return r.persistErr
}

// ckptCrash, when non-nil, is invoked at the "meta-committed" stage of
// a checkpoint round — the crash window the migration durability tests
// stage kills into. Test-only.
var ckptCrash func(stage string)

// checkpointRound runs one round (see the package comment's numbered
// structure). Caller holds ingestMu. Also called with dlog == nil in
// a volatile remote topology — then only step 1 (the remote snapshot
// requests that advance the in-memory log pin) runs.
//
// Liveness contract: the collection channel must be actively drained
// while a round runs — the delivery barrier (step 5) and the slot
// queues' bounded sends both depend on it. That is the same contract
// ingestion already has (an undrained channel eventually stalls the
// shards), just load-bearing at a definite point.
func (r *Router) checkpointRound() {
	durable := r.dlog != nil && r.persistErr == nil
	if durable {
		roundStart := time.Now()
		defer func() { r.tel.ckptRound.RecordDuration(time.Since(roundStart)) }()
		if err := r.dlog.Sync(); err != nil {
			r.persistErr, durable = err, false
		} else {
			r.tel.fsync.RecordDuration(time.Since(roundStart))
		}
	}
	// Every live slot takes the request at its queue position, a message
	// boundary with every prior batch applied: one whose transport can
	// drop asks its remote worker for a snapshot (async, best effort —
	// remote.go's adoptSnapshotLocked), and on a durable round one
	// restored from a slot file stages it (step 3) and replies.
	seq := r.seq.Load()
	replies := make([]chan error, 0, len(r.workers))
	for _, w := range r.workers {
		if w.retired {
			continue
		}
		msg := message{kind: msgCheckpoint, seq: seq}
		if durable && w.file != "" {
			msg.reply = make(chan error, 1)
			replies = append(replies, msg.reply)
		}
		w.in <- msg
	}
	if !durable {
		return
	}
	for _, reply := range replies {
		if err := <-reply; err != nil && r.persistErr == nil {
			r.persistErr = err
		}
	}
	if r.persistErr != nil {
		return
	}
	// Remote pins, captured before the delivery barrier's target: an
	// edge a remote acknowledges after this point stays pinned until
	// the next round, by which time its matches (counted into emitted
	// under the slot lock, before the span pop is visible) are behind
	// a barrier. A slot that keeps no replay entitlement pins nothing.
	keep := seq
	pins := int64(math.MaxInt64)
	for _, w := range r.workers {
		if w.retired {
			continue
		}
		if s := w.coveredSeq(); s < keep {
			keep = s
		}
		if b := w.oldestUnackedBase(); b < keep {
			keep = b
		}
		if f := w.pinFloor(); f < pins {
			pins = f
		}
	}
	target := r.emitted.Load()
	for r.consumed.Load() < target {
		time.Sleep(100 * time.Microsecond)
	}
	if err := r.writeMeta(seq); err != nil {
		r.persistErr = err
		return
	}
	if ckptCrash != nil {
		// Staged kill point for the migration durability tests: the
		// round's meta is committed, the slot publishes are not.
		ckptCrash("meta-committed")
	}
	// Publish the slot checkpoints the slots staged in step 3. A crash
	// anywhere before here leaves the previous round's slot files
	// visible — older than the meta is safe (the tail replay re-emits,
	// at-least-once); newer would lose matches.
	for _, w := range r.workers {
		if w.file == "" || w.retired {
			continue
		}
		if err := os.Rename(w.file+".pending", w.file); err != nil {
			r.persistErr = err
			return
		}
	}
	r.ckptSeq = seq
	r.tel.ckptRounds.Inc()
	if r.cfg.Window > 0 {
		cutoff := r.dlog.MaxTS() - r.cfg.Window + 1
		if pins < cutoff {
			cutoff = pins
		}
		for _, floor := range r.floors {
			if floor < cutoff {
				cutoff = floor
			}
		}
		r.dlog.TrimBefore(cutoff, keep)
	}
}

// writeMeta commits router.meta for a round. Caller holds ingestMu.
func (r *Router) writeMeta(seq uint64) error {
	m := routerMeta{ckptSeq: seq}
	for _, reg := range r.dregs {
		m.regs = append(m.regs, reg)
	}
	for _, w := range r.workers {
		if w.retired {
			m.retired = append(m.retired, w.id)
		}
	}
	sort.Slice(m.regs, func(i, j int) bool { return m.regs[i].rank < m.regs[j].rank })
	return writeMetaFile(filepath.Join(r.cfg.DataDir, "router.meta"), m)
}

// writeCheckpoint persists a slot Open restores from a file (w.file,
// the only slots a round asks for a reply) as its checkpoint at stream
// position seq. Runs on the slot goroutine at a queue message boundary;
// deliberately does not mutate the engine (no retro flush, no
// eviction), so a snapshot is invisible to the match schedule.
func (w *worker) writeCheckpoint(seq uint64) error {
	// Staged as .pending; checkpointRound renames it into place only
	// after the round's delivery barrier and meta commit.
	return writeSlotFile(w.file+".pending", seq, w.slot.LastEnd(), w.slot.Ranks(), func(out io.Writer) error {
		return persist.SaveMulti(out, w.slot.Eng)
	})
}
