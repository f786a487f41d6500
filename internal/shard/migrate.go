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
//  1. Hand over on the source. The router admits a migrate-flagged
//     unregister (Router.admit: the source's gate narrows, undone if
//     the handover fails) and the source slot answers it at its queue
//     position, whatever its transport (dshard.Slot.HandOver): flush
//     the retro barrier (standard unregister discipline), encode the
//     query's state (persist.ExtractQuery), remove the query. The
//     source's host answers with the state before the done; for a
//     remote source the reply comes from whichever transport
//     acknowledges the frame — the live connection, a reconnect's
//     replay, or the in-process host a failover switched to. A remote
//     source whose last dial failed is refused up front. A reconnect
//     can never bring the query back to the source:
//     an acknowledged unregister whose registration only a snapshot
//     holds stays in the slot's replay set until a later snapshot
//     covers it (remote.go's retention rule).
//  2. Re-home. The target registers the query at the same stream
//     position — the normal register path: gate widening, in-window
//     backfill from the shared EdgeLog — with the state image, which
//     carries the query and its pinned configuration; the slot engine
//     decodes it and grafts the state on (persist.TransplantState), or
//     refuses it like any failed registration. Per-query state crosses
//     exactly once, as bytes on every path, so the match multiset is
//     exactly the serial engine's through arbitrary migration
//     schedules (pinned by the package's differential tests).
//  3. Commit. Ownership moves, and on a durable router the registry
//     slot assignment commits through a checkpoint round. A crash
//     between any two steps recovers to the query living on exactly
//     one slot (see Open's reconciliation and the staged-crash test).
package shard

import (
	"fmt"
	"math"
	"time"

	"streamgraph/internal/query"
)

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
// remote registration and every state image take (the parser's own
// print/parse fixed point).
func wireSafe(q *query.Graph) error {
	if rt, err := query.Parse(q.String()); err != nil || rt.String() != q.String() {
		return fmt.Errorf("is not wire-safe: vertex names, labels and edge types must be whitespace-free tokens to cross the wire or a state image")
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
	ownedBy, qc := r.owner[name], r.cost[name]
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
	if src.unreachable.Load() {
		return fail(fmt.Errorf("shard: migrate %q: slot %d is unreachable (its last dial failed)", name, from))
	}
	// The state image carries the query in its textual form.
	if err := wireSafe(qc.q); err != nil {
		return fail(fmt.Errorf("shard: migrate: query %q %w", name, err))
	}
	fp := r.fps[name]
	seq := r.seq.Load()

	// Phase 1: hand the query over on the source. ingestMu is held
	// throughout, so the gate narrowed here admits no edge before the
	// handoff completes or is undone.
	drainStart := r.tel.now()
	h := &handoff{}
	out := message{kind: msgUnregister, name: name, seq: seq, migrate: true, handoff: h, reply: make(chan error, 1)}
	r.admit(src, &out, fp)
	r.send(src, out)
	if err := <-out.reply; err != nil {
		r.undo(src, &out, fp)
		return fail(fmt.Errorf("shard: migrate %q out of slot %d: %w", name, from, err))
	}
	r.tel.migDrain.Record(r.tel.now() - drainStart)
	migrateStage("extracted")

	// Phase 2: register on the target at the same stream position and
	// graft the state on.
	if err := r.placeMigrated(dst, name, h, fp, seq); err != nil {
		// The target refused the query (engine error, corrupt-state
		// transplant, wire loss timing). Put it back where it was — the
		// state is still in hand — rather than lose a standing query.
		if rerr := r.placeMigrated(src, name, h, fp, seq); rerr != nil {
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

// placeMigrated registers a migrated query (its handed-over state in
// hand) on a slot at stream position seq: the normal register
// admission — gate widening, backfill entitlement, remote event
// retention — plus the state image, undone if the slot refuses. Caller
// holds ingestMu; no floor pin is needed because ingestMu is held
// across the reply, so no concurrent ingest can trim the log meanwhile.
func (r *Router) placeMigrated(dst *worker, name string, h *handoff, fp fprint, seq uint64) error {
	if dst.retired {
		return fmt.Errorf("slot %d is retired", dst.id)
	}
	minTS := int64(math.MinInt64)
	if r.cfg.Window > 0 {
		minTS = r.log.MaxTS() - r.cfg.Window + 1
	}
	msg := message{
		kind: msgRegister, name: name, rank: h.rank, state: h.state,
		seq: seq, minTS: minTS, migrate: true, reply: make(chan error, 1),
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
	r.startSlot(w)
	return w.id, nil
}

// RemoveSlot retires a slot: every query it owns is live-migrated to
// the surviving slots (each to the coldest at that moment, slotOrder),
// then the slot is drained and permanently removed from the topology
// (its id remains as a tombstone; it pins nothing). On a durable router
// the tombstone commits through a checkpoint round before RemoveSlot
// returns, so a reopen retires the slot again. Not available in
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
	if r.dlog != nil {
		r.checkpointRound()
	}
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

// retireLocked tombstones a slot: close its queue (the slot loop
// drains and exits) and release every pin it holds on the shared
// EdgeLog. Caller holds ingestMu; the slot must own no queries.
func (r *Router) retireLocked(w *worker) {
	if w.retired {
		return
	}
	w.retired = true
	close(w.in)
	w.dropReplay()
}

// failoverEvacuate re-homes every registration of a failed-over slot
// onto the surviving slots, then retires it. Runs on its own goroutine
// (spawned by the slot loop once it has failed over — a slot cannot
// migrate away from itself from inside its own loop). The in-process
// host it failed over to keeps the slot fully correct meanwhile, so an
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
			// Nowhere to go: stay in-process. Correct, just not
			// distributed; the operator can AddSlot and Rebalance.
			r.ingestMu.Unlock()
			return
		}
		err := r.migrateLocked(name, w.id, to)
		r.ingestMu.Unlock()
		if err != nil {
			// The target refused; give it a beat and retry rather than
			// spin. A closed router ends the loop above.
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
