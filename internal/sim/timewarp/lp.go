package timewarp

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/eventq"
	"repro/internal/metrics"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/kernel"
	"repro/internal/sim/lpnet"
	"repro/internal/sim/phase"
	"repro/internal/sim/supervise"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/trace"
)

// qevent is one pending input event. Every event carries a globally unique
// id so anti-messages can annihilate their originals and rollbacks can
// retract internally scheduled events.
//
// An id is its minting LP's index above idShift and that LP's sequence
// number below. The sequence only grows, and after launch (Pend) an LP
// mints only inside steps, which run in list order: a rollback therefore
// retracts exactly the ids minted since the first step it undoes, one
// closed range of sequence numbers.
type qevent[V comparable] struct {
	gate  circuit.GateID
	value V
	id    uint64
}

// sentRec remembers one transmitted message for later cancellation.
type sentRec[V comparable] struct {
	dst   int
	id    uint64
	time  circuit.Tick
	gate  circuit.GateID
	value V
}

// idShift places the minting LP's index above the sequence number in an
// id; seqMask extracts the sequence number.
const (
	idShift = 40
	seqMask = 1<<idShift - 1
)

// seqRange is a closed range of local sequence numbers that rollbacks
// retired: every local event minted in it is cancelled. due bounds the
// times of the events its steps scheduled; once the queue holds nothing
// due at or before it, none of them is still queued and the range is
// forgotten.
type seqRange struct {
	lo, hi uint64
	due    circuit.Tick
}

// span is a half-open range of one of an LP's history logs.
type span struct{ lo, hi int }

func (r span) len() int { return r.hi - r.lo }

// rebase moves the range down by base entries.
func (r *span) rebase(base int) { r.lo, r.hi = r.lo-base, r.hi-base }

// step is the saved history of one executed timestep: everything needed to
// undo it (state log or snapshot), re-execute it (consumed inputs), and
// cancel its effects (sent messages, and the internal events it created,
// which are the local ids it minted from firstSeq on). Inputs, sends and
// state writes are ranges of the LP's history logs (tlp.inLog, sentLog,
// undo), not slices of the step's own.
type step[V comparable] struct {
	time     circuit.Tick
	inputs   span
	sent     span
	undo     kernel.UndoMark      // incremental state saving: the step's writes start here in tlp.undo
	snap     *kernel.SnapshotT[V] // full-copy state saving (state before the step)
	firstSeq uint64               // the first sequence number the step could mint
	words    uint64               // history words charged to the memory throttle
}

// lazyRec is a message awaiting lazy cancellation: sent by a rolled-back
// step, to be annihilated only if re-execution does not regenerate it.
type lazyRec[V comparable] struct {
	sentRec[V]
	createdAt circuit.Tick
}

// tlp is one Time Warp logical process: the network's loop drives it,
// and its methods are the optimistic rule (lpnet.Rule).
type tlp[V comparable] struct {
	lpnet.LP[V, qevent[V]]
	sh  *shared[V]
	rec *trace.RecorderT[V]

	gvt         circuit.Tick // last observed GVT
	fossilFloor circuit.Tick // history below this time has been collected
	floorEnd    circuit.Tick // time of the newest collected step
	steps       []step[V]
	// History logs: the consumed inputs, sent messages and state writes
	// (incremental saving) of every step in steps, oldest first. Steps
	// execute in time order, roll back as a suffix and are
	// fossil-collected as a prefix, so each log is truncated at one end
	// and compacted at the other, and holds exactly the history in flight.
	// (Per-step slices, recycled with the records, each kept the capacity
	// of the largest step they had ever served: 2.5x the bytes on a
	// 12k-gate run.)
	inLog   []qevent[V]
	sentLog []sentRec[V]
	undo    kernel.UndoT[V]
	// retired lists the sequence ranges rollbacks retracted, sorted and
	// disjoint, and retiredDue is the earliest of their due times; dead
	// holds the tombstones of remote entries anti-messages annihilated
	// that are still queued, and buried is a cut capture's sorted copy.
	retired     []seqRange
	retiredDue  circuit.Tick
	dead        tombs
	buried      []tomb
	lazyPending []lazyRec[V]
	seq         uint64
	maxDelay    circuit.Tick // the longest delay of an owned gate
	relevant    []circuit.GateID

	// held are the cuts captured speculatively below Cut that GVT has not
	// yet passed, oldest first and one per boundary.
	held []*ckpt.Cut[V]

	handledSince uint64
	// paused is set when Ready found processing frozen for a GVT round.
	paused bool
	kevs   []kernel.EventT[V]

	// snapPool recycles full-copy snapshots at rollback and fossil
	// collection instead of dropping them for the GC; reuse keeps their
	// grown capacity, so a warm LP executes timesteps without allocating.
	snapPool []*kernel.SnapshotT[V]

	// Cluster mode (IntraWorkers > 1): the cluster's sub-workers and its
	// modeled evaluation critical path.
	pool     *phase.Pool
	critEval float64
}

// newTLP joins LP id to the run's network. Transit is counted at send
// time and the eager pace flushes after every step and every drain, so GVT
// quiescence (handled==0 && transit==0) cannot conclude while any batch is
// unflushed.
func newTLP[V comparable](sh *shared[V], id int) *tlp[V] {
	cfg := sh.cfg
	l := &tlp[V]{
		sh:         sh,
		rec:        sh.net.Recorder(id),
		kevs:       make([]kernel.EventT[V], 0, 32),
		retiredDue: infTick,
	}
	lpnet.Join(sh.net, &l.LP, id, l, eventq.NewCap[qevent[V]](cfg.Queue, 128), lpnet.Eager)
	k := l.K
	own := k.OwnGates()
	for _, g := range own {
		l.maxDelay = max(l.maxDelay, sh.c.Delays[g])
	}
	switch cfg.StateSaving {
	case FullCopy:
		l.relevant = k.RelevantNets()
	case Incremental:
		// Sized to the block: a step writes each owned net's value and
		// projection at most once, and a few clock samples.
		l.undo = *kernel.NewUndo[V](len(own), len(own)/8, len(own))
	}
	if cfg.IntraWorkers > 1 {
		l.pool = phase.New(cfg.IntraWorkers, sh.engine, sh.net.Sink(), k.EvalPart)
	}
	k.Schedule = func(t circuit.Tick, g circuit.GateID, v V) {
		l.Q.Push(uint64(t), qevent[V]{gate: g, value: v, id: l.newID()})
	}
	k.Send = func(dst int, t circuit.Tick, g circuit.GateID, v V) {
		if l.sh.cfg.Cancellation == Lazy && len(l.lazyPending) > 0 {
			// Lazy cancellation: a regenerated message equal to one already
			// delivered is suppressed — the receiver's copy stays valid —
			// but it keeps its original id so this step's own rollback can
			// still cancel it. A match implies this step is a re-execution
			// of the pending record's originating step: equal message times
			// and gates force equal creation times.
			for i, p := range l.lazyPending {
				if p.dst == dst && p.time == t && p.gate == g && p.value == v {
					l.lazyPending = append(l.lazyPending[:i], l.lazyPending[i+1:]...)
					l.sentLog = append(l.sentLog, p.sentRec)
					return
				}
			}
		}
		rec := sentRec[V]{dst: dst, id: l.newID(), time: t, gate: g, value: v}
		l.sentLog = append(l.sentLog, rec)
		l.sh.net.Transit.Add(1)
		l.Batch.Put(dst, lpnet.Msg[V]{Kind: lpnet.Value, From: l.ID, ID: rec.id, Time: t, Gate: g, Value: v})
	}
	return l
}

// newID mints a run-unique event/message id.
func (l *tlp[V]) newID() uint64 {
	l.seq++
	return uint64(l.ID)<<idShift | l.seq
}

// retire cancels every local id minted from sequence number first on,
// the ids of a rolled-back suffix whose last step ran at last. Later
// ranges only ever start higher, so a new range either extends the list
// or swallows its tail.
func (l *tlp[V]) retire(first uint64, last circuit.Tick) {
	if first > l.seq {
		return // the suffix minted nothing
	}
	r := seqRange{lo: first, hi: l.seq, due: last + l.maxDelay}
	n := len(l.retired)
	for ; n > 0 && l.retired[n-1].hi+1 >= r.lo; n-- {
		r.lo, r.due = min(r.lo, l.retired[n-1].lo), max(r.due, l.retired[n-1].due)
	}
	l.retired = append(l.retired[:n], r)
	l.retiredDue = min(l.retiredDue, r.due)
}

// retiredSeq reports whether local sequence number q was retired. The
// newest range is the likely one, so it is tried first.
func (l *tlp[V]) retiredSeq(q uint64) bool {
	n := len(l.retired)
	if n == 0 {
		return false
	}
	if r := l.retired[n-1]; q >= r.lo {
		return q <= r.hi
	}
	lo, hi := 0, n-1 // the first range ending at or after q is in [lo, hi)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); l.retired[m].hi < q {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < n-1 && l.retired[lo].lo <= q
}

// drop reports whether the entry (t, id) leaving the queue was cancelled:
// a local one by a rollback, a remote one by an anti-message, whose
// tombstone it forgets.
func (l *tlp[V]) drop(t circuit.Tick, id uint64) bool {
	if id>>idShift == uint64(l.ID) {
		return l.retiredSeq(id & seqMask)
	}
	return l.dead.take(tomb{t, id})
}

// forgetRetired drops the ranges whose events are all due before t, once
// every queue entry before t has been popped: at a step at t, and at
// fossil collection below GVT t. A retired id is never queued again — a
// rollback requeues only inputs of the steps it undoes, and it retires
// every id those steps minted — so none of the dropped ids is queued.
func (l *tlp[V]) forgetRetired(t circuit.Tick) {
	if t <= l.retiredDue {
		return
	}
	kept, due := l.retired[:0], infTick
	for _, r := range l.retired {
		if r.due >= t {
			kept = append(kept, r)
			due = min(due, r.due)
		}
	}
	l.retired, l.retiredDue = kept, due
}

// truncateLogs drops the log entries of s and of every later step.
func (l *tlp[V]) truncateLogs(s *step[V]) {
	l.inLog = l.inLog[:s.inputs.lo]
	l.sentLog = l.sentLog[:s.sent.lo]
}

// release gives back what a step record holds outside the logs: its
// throttle charge and its snapshot. Its log ranges are the caller's to
// release (truncateLogs at rollback, dropLogPrefix at fossil collection).
func (l *tlp[V]) release(s *step[V]) {
	if s.words != 0 {
		l.sh.hold(-int64(s.words))
	}
	if s.snap != nil {
		l.snapPool = append(l.snapPool, s.snap)
	}
	*s = step[V]{}
}

// getSnap acquires a snapshot buffer from the free-list; TakeSnapshot
// reuses its capacity.
func (l *tlp[V]) getSnap() *kernel.SnapshotT[V] {
	if n := len(l.snapPool); n > 0 {
		s := l.snapPool[n-1]
		l.snapPool[n-1] = nil
		l.snapPool = l.snapPool[:n-1]
		l.St.PoolHits++
		return s
	}
	l.St.PoolMisses++
	return &kernel.SnapshotT[V]{}
}

// Pend queues a routed event under a fresh id.
func (l *tlp[V]) Pend(ev kernel.EventT[V]) qevent[V] {
	return qevent[V]{gate: ev.Gate, value: ev.Value, id: l.newID()}
}

// Begin gives back the sends the settling step logged: it is never rolled
// back, since every cross-LP message carries a time of at least 1.
func (l *tlp[V]) Begin() { l.sentLog = l.sentLog[:0] }

// Next returns the earliest live pending event time, discarding the
// cancelled entries it passes over.
func (l *tlp[V]) Next() circuit.Tick {
	for {
		t, v, ok := l.Q.Peek()
		if !ok {
			return infTick
		}
		if l.drop(circuit.Tick(t), v.id) {
			l.Q.PopMin()
			continue
		}
		return circuit.Tick(t)
	}
}

// Live reports whether an entry popped at t escaped cancellation.
func (l *tlp[V]) Live(t circuit.Tick, e qevent[V]) bool { return !l.drop(t, e.id) }

// Ready holds unless processing is frozen for a GVT round or t lies past
// the horizon or the effective optimism window the coordinator published
// (see publishWindow). Before a step past a checkpoint boundary it holds
// the boundary's cut.
func (l *tlp[V]) Ready(t circuit.Tick) bool {
	if l.paused = l.sh.paused.Load(); l.paused {
		return false
	}
	win := circuit.Tick(l.sh.win.Load())
	if t == infTick || t > l.sh.until || (win > 0 && l.gvt < infTick-win && t > l.gvt+win) {
		return false
	}
	if t > l.Cut {
		l.holdCuts(t)
	}
	return true
}

// Idle waits out a GVT pause in the barrier phase, serving rounds until
// released. Otherwise nothing is executable: it cancels the lazy sends
// now provably wrong and parks until messages or a GVT round arrive.
func (l *tlp[V]) Idle(circuit.Tick) lpnet.Verdict {
	if l.paused {
		return lpnet.Pause
	}
	l.flushLazyBelowNext()
	return lpnet.Park
}

// Publish has nothing to add: an eager LP flushes after every step.
func (l *tlp[V]) Publish() {}

// Park and Wake keep the count of idle LPs the coordinator paces on.
func (l *tlp[V]) Park() { l.sh.idle.Add(1) }
func (l *tlp[V]) Wake() { l.sh.idle.Add(-1) }

// Step speculatively executes the events at time t.
func (l *tlp[V]) Step(t circuit.Tick, events []qevent[V]) {
	l.forgetRetired(t)
	s := step[V]{time: t, firstSeq: l.seq + 1}
	s.inputs.lo = len(l.inLog)
	l.inLog = append(l.inLog, events...)
	l.kevs = l.kevs[:0]
	for _, ev := range events {
		l.kevs = append(l.kevs, kernel.EventT[V]{Gate: ev.gate, Value: ev.value})
	}
	if l.sh.cfg.StateSaving == FullCopy {
		snapBegin := l.Trace.Now()
		s.snap = l.getSnap()
		l.K.TakeSnapshot(l.relevant, s.snap)
		l.St.StateSaves++
		l.St.StateSavedWords += s.snap.Words()
		l.Trace.Span(trace.PhaseStateSave, snapBegin, t)
	}
	s.sent.lo = len(l.sentLog)
	var undo *kernel.UndoT[V]
	if l.sh.cfg.StateSaving == Incremental {
		undo = &l.undo
		s.undo = undo.Mark()
	}
	scheduled := l.St.EventsScheduled
	if l.pool != nil {
		maxChunk, err := l.K.StepParallel(t, l.kevs, false, undo, &l.St.LPCounters, l.pool)
		if err != nil {
			// A sub-worker panicked and nothing was committed: the run is
			// over, and the LP stops at its next abort check.
			l.sh.net.Fail(err)
			return
		}
		l.critEval += float64(maxChunk)*l.sh.cfg.Cost.EvalCost + l.sh.cfg.Cost.Barrier(l.sh.cfg.IntraWorkers)
	} else {
		l.K.Step(t, l.kevs, false, undo, &l.St.LPCounters)
	}
	var saved uint64
	if undo != nil {
		saved = undo.Words() - s.undo.Words()
		l.St.StateSaves++
		l.St.StateSavedWords += saved
	}
	s.inputs.hi, s.sent.hi = len(l.inLog), len(l.sentLog)
	// The history the step holds until it is collected or rolled back:
	// inputs, sends, created events and saved state.
	s.words = uint64(s.inputs.len()+s.sent.len()) + (l.St.EventsScheduled - scheduled) + saved
	if s.snap != nil {
		s.words += s.snap.Words()
	}
	l.sh.hold(int64(s.words))
	l.steps = append(l.steps, s)
	// Lazy messages from steps at or before t that re-execution did not
	// regenerate are now provably wrong: cancel them.
	l.cancelLazyThrough(t)
}

// rollback restores the LP to just before the earliest step at or after ts
// and schedules that history for re-execution.
func (l *tlp[V]) rollback(ts circuit.Tick) {
	idx := sort.Search(len(l.steps), func(i int) bool { return l.steps[i].time >= ts })
	if idx == len(l.steps) {
		return
	}
	if l.steps[idx].time < l.fossilFloor {
		l.sh.net.Fail(&supervise.SimError{
			Engine: l.sh.engine, LP: l.ID, Phase: "rollback", ModeledTime: ts,
			Kind:  supervise.KindCausality,
			Cause: fmt.Errorf("rollback to %d below GVT %d", ts, l.fossilFloor),
		})
		return
	}
	suffix := l.steps[idx:]
	first := &suffix[0]
	l.St.Rollbacks++
	begin := l.Trace.Now()
	undoneBefore := l.St.EventsRolledBack

	// Restore state.
	if l.sh.cfg.StateSaving == FullCopy {
		l.K.RestoreSnapshot(l.relevant, first.snap)
		l.St.EventsRolledBack += uint64(len(l.inLog) - first.inputs.lo)
	} else {
		l.K.Rollback(&l.undo, first.undo, &l.St.LPCounters)
	}

	// Retract internally scheduled events and cancel sent messages.
	l.retire(first.firstSeq, suffix[len(suffix)-1].time)
	for i := range suffix {
		s := &suffix[i]
		for _, sr := range l.sentLog[s.sent.lo:s.sent.hi] {
			if l.sh.cfg.Cancellation == Lazy {
				l.lazyPending = append(l.lazyPending, lazyRec[V]{sentRec: sr, createdAt: s.time})
			} else {
				l.sendAnti(sr)
			}
		}
	}
	// Requeue the rolled-back inputs (except ones just retracted or
	// previously annihilated).
	l.Q.ResetFloor()
	for i := range suffix {
		s := &suffix[i]
		for _, in := range l.inLog[s.inputs.lo:s.inputs.hi] {
			if !l.drop(s.time, in.id) {
				l.Q.Push(uint64(s.time), in)
			}
		}
	}
	l.rec.TruncateFrom(first.time)
	// Everything the suffix logged has been copied out (inputs into the
	// queue, sent records into lazyPending or anti-messages), so its log
	// entries and records are released.
	l.truncateLogs(first)
	for i := range suffix {
		l.release(&suffix[i])
	}
	l.steps = l.steps[:idx]
	if idx > 0 {
		l.LVT = l.steps[idx-1].time
	} else {
		l.LVT = l.floorEnd
	}
	if len(l.held) > 0 {
		l.dropCuts(l.LVT + 1)
	}
	l.St.Hist(metrics.HistRollbackDepth).Observe(l.St.EventsRolledBack - undoneBefore)
	l.Trace.Span(trace.PhaseRollback, begin, ts)
	l.sh.cfg.Chaos.Stall(l.ID, inject.PhaseRollback)
}

// sendAnti queues an anti-message for a previously sent message; the batch
// is delivered at the next flush. Link FIFO, which the batcher preserves,
// puts it behind its original.
func (l *tlp[V]) sendAnti(sr sentRec[V]) {
	l.St.AntiMessagesSent++
	l.sh.net.Transit.Add(1)
	l.Batch.Put(sr.dst, lpnet.Msg[V]{Kind: lpnet.Anti, From: l.ID, ID: sr.id, Time: sr.time, Gate: sr.gate, Value: sr.value})
}

// cancelLazyThrough cancels pending lazy messages whose originating step
// time is <= t: the LP has re-executed past them without regenerating.
func (l *tlp[V]) cancelLazyThrough(t circuit.Tick) {
	if len(l.lazyPending) == 0 {
		return
	}
	kept := l.lazyPending[:0]
	for _, p := range l.lazyPending {
		if p.createdAt <= t {
			l.sendAnti(p.sentRec)
		} else {
			kept = append(kept, p)
		}
	}
	l.lazyPending = kept
}

// flushLazyBelowNext cancels pending lazy messages whose originating step
// cannot re-execute with the current queue contents (no pending event at
// or before their creation time). Slightly eager — a future straggler
// could have re-created the step — but cancellation is always safe, and
// this guarantees no wrong message survives quiescence.
func (l *tlp[V]) flushLazyBelowNext() {
	if len(l.lazyPending) == 0 {
		return
	}
	next := l.Next()
	kept := l.lazyPending[:0]
	for _, p := range l.lazyPending {
		if p.createdAt < next {
			l.sendAnti(p.sentRec)
		} else {
			kept = append(kept, p)
		}
	}
	l.lazyPending = kept
}

// localMin is this LP's contribution to GVT: the earliest live unprocessed
// event, lower-bounded by any still-pending lazy cancellation (whose
// eventual anti-message may roll the destination back to that time).
func (l *tlp[V]) localMin() circuit.Tick {
	m := l.Next()
	for _, p := range l.lazyPending {
		if p.time < m {
			m = p.time
		}
	}
	return m
}

// fossilCollect frees history strictly older than the new GVT.
func (l *tlp[V]) fossilCollect(gvt circuit.Tick) {
	l.gvt = gvt
	l.fossilFloor = gvt
	l.Slot.SetBound(uint64(gvt))
	idx := sort.Search(len(l.steps), func(i int) bool { return l.steps[i].time >= gvt })
	if idx > 0 {
		l.floorEnd = l.steps[idx-1].time
		// Release the collected prefix and compact in place, keeping the
		// slice's capacity instead of reallocating every collection.
		for i := range l.steps[:idx] {
			l.release(&l.steps[i])
		}
		n := copy(l.steps, l.steps[idx:])
		clear(l.steps[n:])
		l.steps = l.steps[:n]
		l.dropLogPrefix()
	}
	l.forgetRetired(gvt)
	l.commitCuts(gvt)
}

// liveEvent projects a queue entry at t for capture: entries a rollback
// retired or an anti-message annihilated are not pending. The caller
// sorted the tombstones into buried.
func (l *tlp[V]) liveEvent(t circuit.Tick, e qevent[V]) (kernel.EventT[V], bool) {
	ev := kernel.EventT[V]{Gate: e.gate, Value: e.value}
	if e.id>>idShift == uint64(l.ID) {
		return ev, !l.retiredSeq(e.id & seqMask)
	}
	return ev, !has(l.buried, tomb{t, e.id})
}

// holdCuts captures, speculatively, every boundary below t, the time of
// the step the LP is about to execute: every step at or before them has
// run and none after.
func (l *tlp[V]) holdCuts(t circuit.Tick) {
	l.buried = l.dead.sorted(l.buried)
	for l.Cut < t {
		l.held = append(l.held, l.TakeCut(l.liveEvent))
	}
}

// dropCuts discards the held cuts at or after t; the LP captures them
// again on its way back past them. A rollback drops every cut above the
// clock it leaves behind, which keeps each held cut at or below the clock
// (holdCuts runs just before a step past it): a message that could change
// one then always rolls the LP back, and never arrives unnoticed.
func (l *tlp[V]) dropCuts(t circuit.Tick) {
	for n := len(l.held); n > 0 && l.held[n-1].Time >= t; n-- {
		l.Cut = l.held[n-1].Time
		l.held[n-1] = nil
		l.held = l.held[:n-1]
	}
}

// commitCuts hands over every cut below gvt: the held ones, then the
// boundaries the LP never passed, whose cut is its present state (no step
// after them has run, and nothing before gvt can still arrive).
func (l *tlp[V]) commitCuts(gvt circuit.Tick) {
	net := l.sh.net
	i := 0
	for ; i < len(l.held) && l.held[i].Time < gvt; i++ {
		net.Emit(l.held[i])
		l.held[i] = nil
	}
	l.held = l.held[:copy(l.held, l.held[i:])]
	if l.Cut < gvt {
		l.buried = l.dead.sorted(l.buried)
	}
	for l.Cut < gvt {
		net.Emit(l.TakeCut(l.liveEvent))
	}
}

// dropLogPrefix compacts the history logs down to the entries of the
// steps still held, after a prefix of the steps was collected.
func (l *tlp[V]) dropLogPrefix() {
	base := step[V]{
		inputs: span{lo: len(l.inLog)},
		sent:   span{lo: len(l.sentLog)},
		undo:   l.undo.Mark(),
	}
	if len(l.steps) > 0 {
		base = l.steps[0]
	}
	l.inLog = l.inLog[:copy(l.inLog, l.inLog[base.inputs.lo:])]
	l.sentLog = l.sentLog[:copy(l.sentLog, l.sentLog[base.sent.lo:])]
	l.undo.DropBefore(base.undo)
	for i := range l.steps {
		s := &l.steps[i]
		s.inputs.rebase(base.inputs.lo)
		s.sent.rebase(base.sent.lo)
		s.undo = s.undo.Minus(base.undo)
	}
}

// Handle processes one inbound message; it returns false on terminate.
func (l *tlp[V]) Handle(m lpnet.Msg[V]) bool {
	switch m.Kind {
	case lpnet.Value, lpnet.Anti:
		l.sh.net.Settle(m.From)
		l.handledSince++
		what := "message"
		if m.Kind == lpnet.Anti {
			what = "anti-message"
		}
		if m.Time < l.fossilFloor {
			l.sh.net.Fail(&supervise.SimError{
				Engine: l.sh.engine, LP: l.ID, Phase: "handle", ModeledTime: m.Time,
				Kind:  supervise.KindCausality,
				Cause: fmt.Errorf("received %s at %d below GVT %d", what, m.Time, l.fossilFloor),
			})
			return false
		}
		if m.Time <= l.LVT {
			l.rollback(m.Time)
		}
		if m.Kind == lpnet.Anti {
			// The original is now unprocessed (FIFO per link guarantees it
			// arrived first; if it had been processed, the rollback above
			// just requeued it). Tombstone it: its id is remote, so no
			// retired range can cover it.
			l.St.AntiMessagesRecv++
			l.dead.bury(tomb{m.Time, m.ID})
			break
		}
		l.St.MessagesRecv++
		l.Q.ResetFloor()
		l.Q.Push(uint64(m.Time), qevent[V]{gate: m.Gate, value: m.Value, id: m.ID})
	case lpnet.GVTRound:
		l.sh.replies <- gvtReply{handled: l.handledSince, localMin: l.localMin()}
		l.handledSince = 0
	case lpnet.GVTDone:
		l.fossilCollect(m.Time)
	case lpnet.Terminate:
		// GVT has passed the horizon: every cut is final.
		l.commitCuts(infTick)
		return false
	}
	return true
}
