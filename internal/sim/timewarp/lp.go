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

// span is a half-open range of one of an LP's history logs.
type span struct{ lo, hi int }

func (r span) len() int { return r.hi - r.lo }

// rebase moves the range down by base entries.
func (r *span) rebase(base int) { r.lo, r.hi = r.lo-base, r.hi-base }

// step is the saved history of one executed timestep: everything needed to
// undo it (state log or snapshot), re-execute it (consumed inputs), and
// cancel its effects (sent messages, created internal events). The last
// three are ranges of the LP's history logs (tlp.inLog, sentLog,
// createdLog), not slices of the step's own.
type step[V comparable] struct {
	time    circuit.Tick
	inputs  span
	undo    *kernel.UndoT[V]     // incremental state saving
	snap    *kernel.SnapshotT[V] // full-copy state saving (state before the step)
	sent    span
	created span
	words   uint64 // history words charged to the memory throttle
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
	steps       []*step[V]
	// History logs: the consumed inputs, sent messages and created event
	// ids of every step in steps, oldest first. Steps execute in time
	// order, roll back as a suffix and are fossil-collected as a prefix,
	// so each log is truncated at one end and compacted at the other, and
	// holds exactly the history in flight. (Per-step slices, recycled with
	// the records, each kept the capacity of the largest step they had
	// ever served: 2.5x the bytes on a 12k-gate run.)
	inLog       []qevent[V]
	sentLog     []sentRec[V]
	createdLog  []uint64
	dead        map[uint64]bool
	lazyPending []lazyRec[V]
	seq         uint64
	relevant    []circuit.GateID

	// held are the cuts captured speculatively below Cut that GVT has not
	// yet passed, oldest first and one per boundary.
	held []*ckpt.Cut[V]

	curStep      *step[V]
	handledSince uint64
	// paused is set when Ready found processing frozen for a GVT round.
	paused bool
	kevs   []kernel.EventT[V]

	// Free-lists for the per-step history records. Steps, undo logs, and
	// snapshots are recycled here at rollback and fossil collection instead
	// of being dropped for the GC; reuse keeps the undo logs' and
	// snapshots' grown capacity, so a warm LP executes timesteps without
	// allocating.
	stepPool    []*step[V]
	undoPool    []*kernel.UndoT[V]
	snapPool    []*kernel.SnapshotT[V]
	undoScratch []*kernel.UndoT[V]

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
		sh:   sh,
		rec:  sh.net.Recorder(id),
		dead: map[uint64]bool{},
		kevs: make([]kernel.EventT[V], 0, 32),
	}
	lpnet.Join(sh.net, &l.LP, id, l, eventq.NewCap[qevent[V]](cfg.Queue, 128), lpnet.Eager)
	k := l.K
	if cfg.StateSaving == FullCopy {
		l.relevant = k.RelevantNets()
	}
	if cfg.IntraWorkers > 1 {
		l.pool = phase.New(cfg.IntraWorkers, sh.engine, sh.net.Sink(), k.EvalPart)
	}
	k.Schedule = func(t circuit.Tick, g circuit.GateID, v V) {
		ev := qevent[V]{gate: g, value: v, id: l.newID()}
		l.Q.Push(uint64(t), ev)
		if l.curStep != nil {
			l.createdLog = append(l.createdLog, ev.id)
		}
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
	return uint64(l.ID)<<40 | l.seq
}

// getStep acquires a cleared step record, reusing a recycled one (and its
// grown slice capacity) when available.
func (l *tlp[V]) getStep(t circuit.Tick) *step[V] {
	if n := len(l.stepPool); n > 0 {
		s := l.stepPool[n-1]
		l.stepPool[n-1] = nil
		l.stepPool = l.stepPool[:n-1]
		s.time = t
		l.St.PoolHits++
		return s
	}
	l.St.PoolMisses++
	return &step[V]{time: t}
}

// beginStep makes s the executing step: its sent and created ranges open
// at the current ends of the logs, which Send and Schedule append to.
func (l *tlp[V]) beginStep(s *step[V]) {
	s.sent.lo, s.created.lo = len(l.sentLog), len(l.createdLog)
	l.curStep = s
}

// endStep closes the executing step's ranges. A step that is not kept in
// the history gives its log entries back.
func (l *tlp[V]) endStep(s *step[V], keep bool) {
	l.curStep = nil
	if !keep {
		l.truncateLogs(s)
		return
	}
	s.inputs.hi, s.sent.hi, s.created.hi = len(l.inLog), len(l.sentLog), len(l.createdLog)
}

// truncateLogs drops the log entries of s and of every later step.
func (l *tlp[V]) truncateLogs(s *step[V]) {
	l.inLog = l.inLog[:s.inputs.lo]
	l.sentLog = l.sentLog[:s.sent.lo]
	l.createdLog = l.createdLog[:s.created.lo]
}

// putStep recycles a step record and its undo/snapshot into the free-lists.
// The record's log ranges are the caller's to release (truncateLogs at
// rollback, dropLogPrefix at fossil collection).
func (l *tlp[V]) putStep(s *step[V]) {
	if s.words != 0 {
		l.sh.histWords.Add(-int64(s.words))
		s.words = 0
	}
	if s.undo != nil {
		l.undoPool = append(l.undoPool, s.undo)
		s.undo = nil
	}
	if s.snap != nil {
		l.snapPool = append(l.snapPool, s.snap)
		s.snap = nil
	}
	l.stepPool = append(l.stepPool, s)
}

// getUndo acquires a reset undo log from the free-list.
func (l *tlp[V]) getUndo() *kernel.UndoT[V] {
	if n := len(l.undoPool); n > 0 {
		u := l.undoPool[n-1]
		l.undoPool[n-1] = nil
		l.undoPool = l.undoPool[:n-1]
		u.Reset()
		l.St.PoolHits++
		return u
	}
	l.St.PoolMisses++
	return kernel.NewUndo[V](32, 8, 32)
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

// Next returns the earliest non-annihilated pending event time,
// discarding annihilated entries it passes over.
func (l *tlp[V]) Next() circuit.Tick {
	for {
		t, v, ok := l.Q.Peek()
		if !ok {
			return infTick
		}
		if l.dead[v.id] {
			l.Q.PopMin()
			delete(l.dead, v.id)
			continue
		}
		return circuit.Tick(t)
	}
}

// Live reports whether a popped entry escaped annihilation, forgetting
// its tombstone if not.
func (l *tlp[V]) Live(e qevent[V]) bool {
	if l.dead[e.id] {
		delete(l.dead, e.id)
		return false
	}
	return true
}

// Ready holds unless processing is frozen for a GVT round or t lies past
// the horizon or the optimism window. The effective window is the
// narrowest of the configured window, the adaptive controller's output,
// and any memory-throttle clamp the coordinator imposed; the clamp folds
// last so it wins regardless of what the controller asked for. Before a
// step past a checkpoint boundary it holds the boundary's cut.
func (l *tlp[V]) Ready(t circuit.Tick) bool {
	if l.paused = l.sh.paused.Load(); l.paused {
		return false
	}
	win := l.sh.cfg.Window
	if aw := circuit.Tick(l.sh.adaptWin.Load()); aw != 0 && (win == 0 || aw < win) {
		win = aw
	}
	if cl := circuit.Tick(l.sh.clamp.Load()); cl != 0 && (win == 0 || cl < win) {
		win = cl
	}
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

// Park and Wake keep the count of idle LPs the coordinator paces on.
func (l *tlp[V]) Park() { l.sh.idle.Add(1) }
func (l *tlp[V]) Wake() { l.sh.idle.Add(-1) }

// Step speculatively executes the events at time t.
func (l *tlp[V]) Step(t circuit.Tick, events []qevent[V]) {
	s := l.getStep(t)
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
	l.beginStep(s)
	var undo *kernel.UndoT[V]
	if l.sh.cfg.StateSaving == Incremental {
		undo = l.getUndo()
		s.undo = undo
	}
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
	if undo != nil {
		l.St.StateSaves++
		l.St.StateSavedWords += undo.Words()
	}
	l.endStep(s, true)
	if l.sh.cfg.HistoryLimit > 0 {
		w := uint64(s.inputs.len() + s.sent.len() + s.created.len())
		if s.undo != nil {
			w += s.undo.Words()
		}
		if s.snap != nil {
			w += s.snap.Words()
		}
		s.words = w
		l.sh.histWords.Add(int64(w))
	}
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
	l.St.Rollbacks++
	begin := l.Trace.Now()
	undoneBefore := l.St.EventsRolledBack

	// Restore state.
	if l.sh.cfg.StateSaving == FullCopy {
		l.K.RestoreSnapshot(l.relevant, suffix[0].snap)
		for _, s := range suffix {
			l.St.EventsRolledBack += uint64(s.inputs.len())
		}
	} else {
		undos := l.undoScratch[:0]
		for _, s := range suffix {
			undos = append(undos, s.undo)
		}
		l.K.Rollback(undos, &l.St.LPCounters)
		for i := range undos {
			undos[i] = nil
		}
		l.undoScratch = undos[:0]
	}

	// Retract internally scheduled events and cancel sent messages.
	for _, s := range suffix {
		for _, id := range l.createdLog[s.created.lo:s.created.hi] {
			l.dead[id] = true
		}
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
	for _, s := range suffix {
		for _, in := range l.inLog[s.inputs.lo:s.inputs.hi] {
			if l.dead[in.id] {
				delete(l.dead, in.id)
				continue
			}
			l.Q.Push(uint64(s.time), in)
		}
	}
	l.rec.TruncateFrom(suffix[0].time)
	// Everything the suffix logged has been copied out (inputs into the
	// queue, sent records into lazyPending or anti-messages, created ids
	// into the tombstone set), so its log entries and records are released.
	l.truncateLogs(suffix[0])
	for i, s := range suffix {
		l.putStep(s)
		suffix[i] = nil
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
		// Recycle the collected prefix and compact in place, keeping the
		// slice's capacity instead of reallocating every collection.
		for _, s := range l.steps[:idx] {
			l.putStep(s)
		}
		n := copy(l.steps, l.steps[idx:])
		for i := n; i < len(l.steps); i++ {
			l.steps[i] = nil
		}
		l.steps = l.steps[:n]
		l.dropLogPrefix()
	}
	l.commitCuts(gvt)
}

// liveEvent projects a queue entry for capture: tombstoned entries are
// not pending.
func (l *tlp[V]) liveEvent(e qevent[V]) (kernel.EventT[V], bool) {
	return kernel.EventT[V]{Gate: e.gate, Value: e.value}, !l.dead[e.id]
}

// holdCuts captures, speculatively, every boundary below t, the time of
// the step the LP is about to execute: every step at or before them has
// run and none after.
func (l *tlp[V]) holdCuts(t circuit.Tick) {
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
	for l.Cut < gvt {
		net.Emit(l.TakeCut(l.liveEvent))
	}
}

// dropLogPrefix compacts the history logs down to the entries of the
// steps still held, after a prefix of the steps was collected.
func (l *tlp[V]) dropLogPrefix() {
	base := step[V]{
		inputs:  span{lo: len(l.inLog)},
		sent:    span{lo: len(l.sentLog)},
		created: span{lo: len(l.createdLog)},
	}
	if len(l.steps) > 0 {
		base = *l.steps[0]
	}
	l.inLog = l.inLog[:copy(l.inLog, l.inLog[base.inputs.lo:])]
	l.sentLog = l.sentLog[:copy(l.sentLog, l.sentLog[base.sent.lo:])]
	l.createdLog = l.createdLog[:copy(l.createdLog, l.createdLog[base.created.lo:])]
	for _, s := range l.steps {
		s.inputs.rebase(base.inputs.lo)
		s.sent.rebase(base.sent.lo)
		s.created.rebase(base.created.lo)
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
			// just requeued it). Tombstone it.
			l.St.AntiMessagesRecv++
			l.dead[m.ID] = true
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
