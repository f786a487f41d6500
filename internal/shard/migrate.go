// Live query migration and elastic topology: Router.Migrate moves one
// standing query between shard slots without losing or duplicating a
// match; AddSlot/RemoveSlot grow and shrink the topology around it;
// Rebalance is the hot-spot policy loop; and a remote slot whose
// redial budget runs out fails over automatically (failoverEvacuate),
// re-homing its registrations onto the survivors instead of pinning
// the EdgeLog forever.
//
// A migration is a three-phase handoff, executed under ingestMu so it
// happens at one definite stream position with no edges in flight:
//
//  1. Drain + extract on the source. The router admits a
//     migrate-flagged unregister (Router.admit: the source's gate
//     narrows, undone if the extraction fails). A local source handles
//     it at its queue position: flush the retro barrier (standard
//     unregister discipline), clone the query's state
//     (persist.CloneQuery) and unregister it, replying the clone. A
//     remote source runs a drain barrier instead — request a
//     checkpoint and wait for the
//     snapshot adoption (every admitted frame acknowledged, the image
//     serialized at the barrier position), then extract the query
//     from the snapshot image; its pending retrospective work rides
//     the clone un-flushed, exactly like a crash restore's, and the
//     migrate-unregister tells the worker to skip its flush barrier.
//     The slot's retained restore image is stripped of the query
//     BEFORE the unregister is sent, so a connection death anywhere
//     in the handoff can only replay the unregister as a no-op —
//     never resurrect state that already left.
//  2. Re-home. The target registers the query at the same stream
//     position — the normal register path: gate widening, in-window
//     backfill from the shared EdgeLog — and then grafts the clone on
//     (persist.TransplantState locally, the register frame's State
//     image remotely). Per-query state crosses exactly once, so the
//     match multiset is exactly the serial engine's through arbitrary
//     migration schedules (pinned by the package's differential
//     tests).
//  3. Commit. Ownership moves, and on a durable router the registry
//     slot assignment commits through a checkpoint round. A crash
//     between any two steps recovers to the query living on exactly
//     one slot (see Open's reconciliation and the staged-crash test).
package shard

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/dshard"
	"streamgraph/internal/persist"
	"streamgraph/internal/query"
)

// migrateDrainTimeout bounds a remote source's drain barrier: how long
// Migrate waits for the slot to acknowledge everything outstanding and
// adopt a fresh snapshot. A variable so the failure-path tests can
// shorten it.
var migrateDrainTimeout = 30 * time.Second

// migrateCrash, when non-nil, is invoked at named stages of a
// migration ("extracted", "target-registered") — the staged kill
// points of the crash-recovery differential tests. Test-only.
var migrateCrash func(stage string)

func migrateStage(stage string) {
	if migrateCrash != nil {
		migrateCrash(stage)
	}
}

// wireSafe reports whether the query survives the textual round trip a
// remote registration takes (the parser's own print/parse fixed point).
func wireSafe(q *query.Graph) error {
	if rt, err := query.Parse(q.String()); err != nil || rt.String() != q.String() {
		return fmt.Errorf("is not wire-safe: vertex names, labels and edge types must be whitespace-free tokens in a remote topology")
	}
	return nil
}

// Owner reports the shard slot that currently owns the named query,
// false if the name is not registered. The answer is advisory in the
// presence of concurrent Migrate/Rebalance calls — pass it to Migrate
// and a stale read surfaces as the "does not own" error, never as a
// misroute.
func (r *Router) Owner(name string) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.owner[name]
	if !ok {
		return 0, false
	}
	return w.id, true
}

// Migrate moves query name from slot from to slot to, live: no match
// is lost or duplicated across the handoff, and ingestion admitted
// after Migrate returns is seen only by the target. It blocks until
// the target has acknowledged the registration (matches must keep
// being consumed meanwhile, as with Register and Close). On error the
// query is left registered — on the source when the extraction
// failed, re-placed on the source when the target refused it.
//
// Not available in Ordered mode: the deterministic merge relies on a
// static query→slot assignment.
func (r *Router) Migrate(name string, from, to int) error {
	if r.cfg.Ordered {
		return fmt.Errorf("shard: migration is not available in Ordered mode")
	}
	if from == to {
		return fmt.Errorf("shard: migration source and target are the same slot %d", from)
	}
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	return r.migrateLocked(name, from, to)
}

// migrateLocked is Migrate under ingestMu (RemoveSlot batches several).
func (r *Router) migrateLocked(name string, from, to int) error {
	if r.closed {
		return fmt.Errorf("shard: router is closed")
	}
	if from < 0 || from >= len(r.workers) || to < 0 || to >= len(r.workers) {
		return fmt.Errorf("shard: migration slot out of range (have %d slots)", len(r.workers))
	}
	src, dst := r.workers[from], r.workers[to]
	if dst.retired {
		return fmt.Errorf("shard: migration target slot %d is retired", to)
	}
	r.mu.Lock()
	ownedBy := r.owner[name]
	r.mu.Unlock()
	if ownedBy != src {
		return fmt.Errorf("shard: query %q is not registered on slot %d", name, from)
	}
	r.tel.migStarted.Inc()
	fail := func(err error) error {
		r.tel.migFailed.Inc()
		return err
	}

	if src.retired {
		return fail(fmt.Errorf("shard: migration source slot %d is retired", from))
	}
	fp := r.fps[name]
	seq := r.seq.Load()

	// Phase 1: drain the source and extract the query's state. ingestMu
	// is held throughout, so the gate narrowed here admits no edge before
	// the handoff completes or is undone.
	drainStart := r.tel.now()
	out := message{kind: msgUnregister, name: name, seq: seq, migrate: true, reply: make(chan error, 1)}
	r.admit(src, &out, fp)
	var clone *core.MultiEngine
	var rank int
	var err error
	if src.remote == nil {
		out.xout = make(chan migrateOut, 1)
		r.send(src, out)
		res := <-out.xout
		if clone, rank, err = res.eng, res.rank, res.err; err != nil {
			err = fmt.Errorf("shard: migrate %q out of slot %d: %w", name, from, err)
		}
	} else {
		clone, rank, err = r.extractRemote(src, out)
	}
	if err != nil {
		r.undo(src, &out, fp)
		return fail(err)
	}
	r.tel.migDrain.Record(r.tel.now() - drainStart)
	migrateStage("extracted")

	// Phase 2: register on the target at the same stream position and
	// graft the state on.
	if err := r.placeMigrated(dst, name, clone, rank, fp, seq); err != nil {
		// The target refused the query (engine error, corrupt-state
		// transplant, wire loss timing). Put it back where it was — the
		// state is still in hand — rather than lose a standing query.
		if rerr := r.placeMigrated(src, name, clone, rank, fp, seq); rerr != nil {
			// Both slots refused. The query is gone from the runtime;
			// make the registry agree so Registered()/recovery do not
			// resurrect a phantom.
			r.dropRegistration(name, src)
			return fail(fmt.Errorf("shard: migrate %q: target slot %d refused (%v) and source slot %d refused re-placement: %w", name, to, err, from, rerr))
		}
		return fail(fmt.Errorf("shard: migrate %q to slot %d: %w", name, to, err))
	}

	// Phase 3: commit ownership (and the durable registry).
	r.mu.Lock()
	if r.owner[name] == src { // a concurrent Unregister may have won
		r.owner[name] = dst
		r.owned[src]--
		r.owned[dst]++
	}
	r.mu.Unlock()
	migrateStage("target-registered")
	if r.dlog != nil {
		if reg, ok := r.dregs[name]; ok {
			reg.slot = to
			r.dregs[name] = reg
		}
		if !r.closed {
			r.checkpointRound()
		}
	}
	r.tel.migCompleted.Inc()
	return nil
}

// extractRemote runs the drain barrier on a remote source slot and
// extracts the query from the resulting snapshot: request a
// checkpoint, wait until the slot has acknowledged everything admitted
// and adopted the fresh image, decode it, clone the query out, and
// strip the query from the slot's retained restore image before
// sending msg, the admitted migrate-unregister. Caller holds ingestMu.
func (r *Router) extractRemote(src *worker, msg message) (*core.MultiEngine, int, error) {
	rs, name := src.remote, msg.name
	gen := rs.snapshotGen()
	src.in <- message{kind: msgCheckpoint}
	deadline := time.Now().Add(migrateDrainTimeout)
	resent := time.Now()
	for rs.snapshotGen() == gen || !rs.drained() {
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("shard: migrate %q: slot %d drain barrier timed out (disconnected, or snapshot over the frame limit)", name, src.id)
		}
		// A checkpoint request that catches the slot between a dead
		// connection and its redial is dropped on the floor — the
		// cadence rounds tolerate that (the next round re-requests),
		// but the barrier must not. Keep nudging until one lands on a
		// live connection; extra snapshots are harmless refreshes.
		if rs.snapshotGen() == gen && time.Since(resent) > 50*time.Millisecond {
			src.in <- message{kind: msgCheckpoint}
			resent = time.Now()
		}
		time.Sleep(200 * time.Microsecond)
	}
	si, err := dshard.DecodeSnapshotImage(rs.snapshotCut())
	if err != nil {
		return nil, 0, fmt.Errorf("shard: migrate %q: slot %d snapshot: %w", name, src.id, err)
	}
	rank, ok := si.Ranks[name]
	if !ok {
		return nil, 0, fmt.Errorf("shard: migrate %q: slot %d snapshot does not hold it", name, src.id)
	}
	full, err := persist.LoadMulti(bytes.NewReader(si.Engine))
	if err != nil {
		return nil, 0, fmt.Errorf("shard: migrate %q: slot %d snapshot engine: %w", name, src.id, err)
	}
	clone, err := persist.CloneQuery(full, name)
	if err != nil {
		return nil, 0, fmt.Errorf("shard: migrate %q out of slot %d: %w", name, src.id, err)
	}

	// Rebuild the slot's retained restore image without the query:
	// remaining ranks, the narrowed filter msg is stamped with, trimmed
	// replica. Replacing it BEFORE the unregister is sent is what makes
	// the handoff crash-safe on this side — a reconnect anywhere after
	// this point restores the stripped image and replays the pending
	// unregister as a no-op.
	full.Unregister(name)
	if r.filtering {
		full.SetReplicaFilter(msg.postTypes, msg.postUniversal)
		full.TrimReplica()
	}
	var buf bytes.Buffer
	if err := persist.SaveMulti(&buf, full); err != nil {
		return nil, 0, fmt.Errorf("shard: migrate %q: strip slot %d image: %w", name, src.id, err)
	}
	delete(si.Ranks, name)
	si.Universal, si.Types = msg.postUniversal, msg.postTypes
	si.Engine = buf.Bytes()
	rs.replaceSnapshot(si.Encode(), msg.postUniversal, msg.postTypes)

	r.send(src, msg)
	<-msg.reply
	return clone, rank, nil
}

// placeMigrated registers a migrated query (state clone in hand) on a
// slot at stream position seq: the normal register admission — gate
// widening, backfill entitlement, remote event retention — plus the
// transplant payload, undone if the slot refuses. Caller holds
// ingestMu; no floor pin is needed because ingestMu is held across the
// reply, so no concurrent ingest can trim the log meanwhile.
func (r *Router) placeMigrated(dst *worker, name string, clone *core.MultiEngine, rank int, fp fprint, seq uint64) error {
	if dst.retired {
		return fmt.Errorf("slot %d is retired", dst.id)
	}
	eng := clone.QueryEngine(name)
	if eng == nil {
		return fmt.Errorf("clone does not hold %q", name)
	}
	minTS := int64(math.MinInt64)
	if r.cfg.Window > 0 {
		minTS = r.log.MaxTS() - r.cfg.Window + 1
	}
	msg := message{
		kind: msgRegister, name: name, q: eng.Query(), cfg: eng.ConfigSnapshot(), rank: rank,
		seq: seq, minTS: minTS, migrate: true, reply: make(chan error, 1),
	}
	if dst.remote != nil {
		if err := wireSafe(msg.q); err != nil {
			return fmt.Errorf("query %q %w", name, err)
		}
		var buf bytes.Buffer
		if err := persist.SaveMulti(&buf, clone); err != nil {
			return fmt.Errorf("encode state: %w", err)
		}
		msg.state = buf.Bytes()
	} else {
		msg.xfer = clone
	}
	r.admit(dst, &msg, fp)
	r.send(dst, msg)
	if err := <-msg.reply; err != nil {
		r.undo(dst, &msg, fp)
		return err
	}
	return nil
}

// dropRegistration erases every router-side trace of a query that no
// slot holds anymore (the double-refusal corner of a failed
// migration; the refused placements already undid their footprints).
// Caller holds ingestMu.
func (r *Router) dropRegistration(name string, last *worker) {
	r.mu.Lock()
	if r.owner[name] == last {
		r.disown(name)
	}
	r.mu.Unlock()
	if r.dlog != nil {
		delete(r.dregs, name)
		if !r.closed {
			r.checkpointRound()
		}
	}
}

// AddSlot grows the topology with one more remote slot at runtime,
// returning its slot id. The slot starts empty (an empty gate in
// filtering mode) and picks up work through Register placement,
// Migrate, or Rebalance. Not available in Ordered mode (the merge
// iterates a static worker set) or on a durable router (the restart
// topology comes from Config.Remotes; grow it there and restart).
func (r *Router) AddSlot(addr string) (int, error) {
	if r.cfg.Ordered {
		return 0, fmt.Errorf("shard: AddSlot is not available in Ordered mode")
	}
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	if r.closed {
		return 0, fmt.Errorf("shard: router is closed")
	}
	if r.dlog != nil {
		return 0, fmt.Errorf("shard: AddSlot is not available on a durable router: add the address to Config.Remotes and restart")
	}
	w := r.newWorker(len(r.workers), addr)
	r.hasRemote = true
	r.mu.Lock()
	r.workers = append(r.workers, w)
	r.mu.Unlock()
	r.wg.Add(1)
	go w.remote.run()
	return w.id, nil
}

// RemoveSlot retires a slot: every query it owns is live-migrated to
// the surviving slots (each to the coldest at that moment, slotOrder),
// then the slot is drained and permanently removed from the topology
// (its id remains as a tombstone; it pins nothing). Not available in
// Ordered mode.
func (r *Router) RemoveSlot(id int) error {
	if r.cfg.Ordered {
		return fmt.Errorf("shard: RemoveSlot is not available in Ordered mode")
	}
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	if r.closed {
		return fmt.Errorf("shard: router is closed")
	}
	if id < 0 || id >= len(r.workers) {
		return fmt.Errorf("shard: slot %d out of range (have %d slots)", id, len(r.workers))
	}
	w := r.workers[id]
	if w.retired {
		return fmt.Errorf("shard: slot %d is already retired", id)
	}
	for {
		name, ok := r.anyOwned(w)
		if !ok {
			break
		}
		to := r.pickTarget(w)
		if to < 0 {
			return fmt.Errorf("shard: cannot remove slot %d: no surviving slot to migrate %q to", id, name)
		}
		if err := r.migrateLocked(name, id, to); err != nil {
			return err
		}
	}
	r.retireLocked(w)
	return nil
}

// anyOwned returns one query owned by the slot, if any.
func (r *Router) anyOwned(w *worker) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Walk registration order for determinism (map order would make
	// failure modes flaky to reproduce).
	for _, name := range r.order {
		if r.owner[name] == w {
			return name, true
		}
	}
	return "", false
}

// pickTarget chooses the coldest live slot other than w (slotOrder),
// or -1.
func (r *Router) pickTarget(w *worker) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	slots, _ := r.slotOrder()
	for _, cand := range slots {
		if cand != w {
			return cand.id
		}
	}
	return -1
}

// retireLocked tombstones a slot: close its queue (the worker or proxy
// goroutine drains and exits) and clear every pin it holds on the
// shared EdgeLog. Caller holds ingestMu; the slot must own no queries.
func (r *Router) retireLocked(w *worker) {
	if w.retired {
		return
	}
	w.retired = true
	close(w.in)
	if w.remote != nil {
		w.remote.retire()
	}
}

// failoverEvacuate re-homes every registration of a failed-over slot
// onto the surviving slots, then retires it. Runs on its own goroutine
// (spawned by the slot's redial loop when the budget runs out — a slot
// cannot migrate away from itself from inside its own event loop).
// The hospice engine keeps the slot fully correct meanwhile, so an
// evacuation that finds no surviving slot simply leaves the queries
// running in-process.
func (r *Router) failoverEvacuate(w *worker) {
	for {
		r.ingestMu.Lock()
		if r.closed || w.retired {
			r.ingestMu.Unlock()
			return
		}
		name, ok := r.anyOwned(w)
		if !ok {
			r.retireLocked(w)
			r.ingestMu.Unlock()
			return
		}
		to := r.pickTarget(w)
		if to < 0 {
			// Nowhere to go: stay on the hospice engine. Correct, just
			// not distributed; the operator can AddSlot and Rebalance.
			r.ingestMu.Unlock()
			return
		}
		if w.remote != nil && w.remote.liveConn.Load() == nil {
			// The hospice connection is still coming up; a drain
			// barrier now would only burn its timeout while holding
			// ingestMu. Back off without blocking ingestion.
			r.ingestMu.Unlock()
			time.Sleep(5 * time.Millisecond)
			continue
		}
		err := r.migrateLocked(name, w.id, to)
		r.ingestMu.Unlock()
		if err != nil {
			// The hospice may still be rebuilding; give it a beat and
			// retry rather than spin. A closed router ends the loop
			// above.
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// Rebalance evens the estimated load across the live slots: while some
// query can move from a hotter slot to the coldest one (slotOrder) and
// leave the coldest slot ordered strictly before where the hotter one
// stood — by (load, owned queries) — it live-migrates the query whose
// move leaves the lower peak between the two, trying the hottest slot
// first. Every move therefore lowers the hotter slot's load without
// making a new hot spot, so the loop ends; a slot whose load is one
// expensive query keeps it. With equal costs (nothing estimated: all 0)
// this is the count rule: migrate until no two slots differ by more
// than one query. It begins by re-estimating every query from the
// window's statistics (refreshCosts), so one registered cold, or whose
// edge types have drifted since, is weighed by what the stream carries
// now. Returns the number of migrations performed. Not available in
// Ordered mode.
func (r *Router) Rebalance() (int, error) {
	if r.cfg.Ordered {
		return 0, fmt.Errorf("shard: Rebalance is not available in Ordered mode")
	}
	r.ingestMu.Lock()
	r.refreshCosts()
	r.ingestMu.Unlock()
	moved := 0
	for {
		r.ingestMu.Lock()
		if r.closed {
			r.ingestMu.Unlock()
			return moved, fmt.Errorf("shard: router is closed")
		}
		name, hot, cold := r.rebalanceMove()
		if name == "" {
			r.ingestMu.Unlock()
			return moved, nil
		}
		err := r.migrateLocked(name, hot, cold)
		r.ingestMu.Unlock()
		if err != nil {
			return moved, err
		}
		moved++
	}
}

// rebalanceMove picks Rebalance's next migration, "" when placement is
// as even as whole queries allow.
func (r *Router) rebalanceMove() (name string, from, to int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	slots, loads := r.slotOrder()
	if len(slots) < 2 {
		return "", 0, 0
	}
	cold := slots[0]
	for i := len(slots) - 1; i > 0; i-- {
		hot := slots[i]
		peak := 0.0
		for _, cand := range r.order {
			if r.owner[cand] != hot {
				continue
			}
			after := r.slotLoads(cand, cold)
			if after[cold] > loads[hot] || after[cold] == loads[hot] && r.owned[cold]+1 >= r.owned[hot] {
				continue // cold would end up where hot stood, or hotter
			}
			if p := max(after[hot], after[cold]); name == "" || p < peak {
				name, peak = cand, p
			}
		}
		if name != "" {
			return name, hot.id, cold.id
		}
	}
	return "", 0, 0
}
