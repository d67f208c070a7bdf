package timewarp

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/circuit"
	"repro/internal/eventq"
	"repro/internal/metrics"
	"repro/internal/sim/kernel"
	"repro/internal/sim/lpnet"
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

// tlp is one Time Warp logical process.
type tlp[V comparable] struct {
	id   int
	sh   *shared[V]
	cfg  Config
	k    *kernel.LPT[V]
	q    eventq.Queue[qevent[V]]
	rec  *trace.RecorderT[V]
	st   *metrics.LPBlock
	trsh *trace.Shard
	slot *supervise.LPSlot // watchdog scoreboard entry; nil-safe when unwatched

	lvt         circuit.Tick
	gvt         circuit.Tick // last observed GVT
	fossilFloor circuit.Tick // history below this time has been collected
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

	curStep      *step[V]
	handledSince uint64
	// batch holds outgoing messages per destination until the next flush:
	// after every step and every drain, and before every park. Transit is
	// counted at send time, so GVT quiescence (handled==0 && transit==0)
	// cannot conclude while any batch is unflushed.
	batch *lpnet.Batcher[V]
	buf   []lpnet.Msg[V]
	evs   []qevent[V]
	kevs  []kernel.EventT[V]

	// Free-lists for the per-step history records. Steps, undo logs, and
	// snapshots are recycled here at rollback and fossil collection instead
	// of being dropped for the GC; reuse keeps the undo logs' and
	// snapshots' grown capacity, so a warm LP executes timesteps without
	// allocating.
	stepPool    []*step[V]
	undoPool    []*kernel.UndoT[V]
	snapPool    []*kernel.SnapshotT[V]
	undoScratch []*kernel.UndoT[V]

	// Hybrid-mode intra-cluster buffers and accounting.
	outBuf   []V
	clkBuf   []V
	critEval float64
}

func newTLP[V comparable](sh *shared[V], id int, cfg Config) *tlp[V] {
	k := sh.net.Kernel(id)
	l := &tlp[V]{
		id:    id,
		sh:    sh,
		cfg:   cfg,
		k:     k,
		rec:   sh.net.Recorder(id),
		batch: sh.net.Batcher(id),
		q:     eventq.NewCap[qevent[V]](cfg.Queue, 128),
		dead:  map[uint64]bool{},
		evs:   make([]qevent[V], 0, 32),
		kevs:  make([]kernel.EventT[V], 0, 32),
		buf:   make([]lpnet.Msg[V], 0, 64),
		st:    sh.sink.LP(id),
		trsh:  sh.tracer.Shard(fmt.Sprintf("lp %d", id)),
	}
	if cfg.StateSaving == FullCopy {
		l.relevant = k.RelevantNets()
	}
	if cfg.IntraWorkers > 1 {
		l.outBuf = make([]V, sh.c.NumGates())
		l.clkBuf = make([]V, sh.c.NumGates())
	}
	k.Schedule = func(t circuit.Tick, g circuit.GateID, v V) {
		ev := qevent[V]{gate: g, value: v, id: l.newID()}
		l.q.Push(uint64(t), ev)
		if l.curStep != nil {
			l.createdLog = append(l.createdLog, ev.id)
		}
	}
	k.Send = func(dst int, t circuit.Tick, g circuit.GateID, v V) {
		if l.cfg.Cancellation == Lazy && len(l.lazyPending) > 0 {
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
		l.batch.Put(dst, lpnet.Msg[V]{Kind: lpnet.Value, From: l.id, ID: rec.id, Time: t, Gate: g, Value: v})
	}
	return l
}

// newID mints a run-unique event/message id.
func (l *tlp[V]) newID() uint64 {
	l.seq++
	return uint64(l.id)<<40 | l.seq
}

// getStep acquires a cleared step record, reusing a recycled one (and its
// grown slice capacity) when available.
func (l *tlp[V]) getStep(t circuit.Tick) *step[V] {
	if n := len(l.stepPool); n > 0 {
		s := l.stepPool[n-1]
		l.stepPool[n-1] = nil
		l.stepPool = l.stepPool[:n-1]
		s.time = t
		l.st.PoolHits++
		return s
	}
	l.st.PoolMisses++
	return &step[V]{time: t}
}

// beginStep makes s the executing step: its sent and created ranges open
// at the current ends of the logs, which Send and Schedule append to.
func (l *tlp[V]) beginStep(s *step[V]) {
	s.sent.lo, s.created.lo = len(l.sentLog), len(l.createdLog)
	l.curStep = s
}

// endStep closes the executing step's ranges. A step that is not kept in
// the history (the time-zero settling step is never rolled back) gives
// its log entries back.
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
		l.st.PoolHits++
		return u
	}
	l.st.PoolMisses++
	return kernel.NewUndo[V](32, 8, 32)
}

// getSnap acquires a snapshot buffer from the free-list; TakeSnapshot
// reuses its capacity.
func (l *tlp[V]) getSnap() *kernel.SnapshotT[V] {
	if n := len(l.snapPool); n > 0 {
		s := l.snapPool[n-1]
		l.snapPool[n-1] = nil
		l.snapPool = l.snapPool[:n-1]
		l.st.PoolHits++
		return s
	}
	l.st.PoolMisses++
	return &kernel.SnapshotT[V]{}
}

// nextLive returns the earliest non-annihilated pending event time,
// discarding annihilated entries it passes over.
func (l *tlp[V]) nextLive() circuit.Tick {
	for {
		t, v, ok := l.q.Peek()
		if !ok {
			return infTick
		}
		if l.dead[v.id] {
			l.q.PopMin()
			delete(l.dead, v.id)
			continue
		}
		return circuit.Tick(t)
	}
}

// popBatch removes all live events at exactly time t.
func (l *tlp[V]) popBatch(t circuit.Tick) []qevent[V] {
	l.evs = l.evs[:0]
	for {
		pt, v, ok := l.q.Peek()
		if !ok || circuit.Tick(pt) != t {
			break
		}
		l.q.PopMin()
		if l.dead[v.id] {
			delete(l.dead, v.id)
			continue
		}
		l.evs = append(l.evs, v)
	}
	return l.evs
}

// execStep speculatively executes the events at time t.
func (l *tlp[V]) execStep(t circuit.Tick, events []qevent[V], initial bool) {
	begin := l.trsh.Now()
	s := l.getStep(t)
	s.inputs.lo = len(l.inLog)
	l.inLog = append(l.inLog, events...)
	l.kevs = l.kevs[:0]
	for _, ev := range events {
		l.kevs = append(l.kevs, kernel.EventT[V]{Gate: ev.gate, Value: ev.value})
	}
	if !initial && l.cfg.StateSaving == FullCopy {
		snapBegin := l.trsh.Now()
		s.snap = l.getSnap()
		l.k.TakeSnapshot(l.relevant, s.snap)
		l.st.StateSaves++
		l.st.StateSavedWords += s.snap.Words()
		l.trsh.Span(trace.PhaseStateSave, snapBegin, t)
	}
	l.beginStep(s)
	var undo *kernel.UndoT[V]
	if !initial && l.cfg.StateSaving == Incremental {
		undo = l.getUndo()
		s.undo = undo
	}
	if l.cfg.IntraWorkers > 1 {
		maxChunk := l.k.StepParallel(t, l.kevs, initial, undo, &l.st.LPCounters, l.cfg.IntraWorkers, l.outBuf, l.clkBuf)
		l.critEval += float64(maxChunk)*l.cfg.Cost.EvalCost + l.cfg.Cost.Barrier(l.cfg.IntraWorkers)
	} else {
		l.k.Step(t, l.kevs, initial, undo, &l.st.LPCounters)
	}
	if undo != nil {
		l.st.StateSaves++
		l.st.StateSavedWords += undo.Words()
	}
	l.st.Hist(metrics.HistStepEvents).Observe(uint64(len(events)))
	l.trsh.Span(trace.PhaseEvaluate, begin, t)
	l.endStep(s, !initial)
	if !initial {
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
	} else {
		l.putStep(s)
	}
	l.lvt = t
	// Lazy messages from steps at or before t that re-execution did not
	// regenerate are now provably wrong: cancel them.
	l.cancelLazyThrough(t)
}

// execInitial runs the time-zero settling step (never rolled back: all
// cross-LP messages carry times >= 1, so no straggler can target time 0).
func (l *tlp[V]) execInitial(events []kernel.EventT[V]) {
	s := &step[V]{time: 0}
	l.beginStep(s)
	begin := l.trsh.Now()
	l.k.Step(0, events, true, nil, &l.st.LPCounters)
	l.st.Hist(metrics.HistStepEvents).Observe(uint64(len(events)))
	l.trsh.Span(trace.PhaseEvaluate, begin, 0)
	l.endStep(s, false)
	l.lvt = 0
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
			Engine: l.sh.engine, LP: l.id, Phase: "rollback", ModeledTime: ts,
			Kind:  supervise.KindCausality,
			Cause: fmt.Errorf("rollback to %d below GVT %d", ts, l.fossilFloor),
		})
		return
	}
	suffix := l.steps[idx:]
	l.st.Rollbacks++
	begin := l.trsh.Now()
	undoneBefore := l.st.EventsRolledBack

	// Restore state.
	if l.cfg.StateSaving == FullCopy {
		l.k.RestoreSnapshot(l.relevant, suffix[0].snap)
		for _, s := range suffix {
			l.st.EventsRolledBack += uint64(s.inputs.len())
		}
	} else {
		undos := l.undoScratch[:0]
		for _, s := range suffix {
			undos = append(undos, s.undo)
		}
		l.k.Rollback(undos, &l.st.LPCounters)
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
			if l.cfg.Cancellation == Lazy {
				l.lazyPending = append(l.lazyPending, lazyRec[V]{sentRec: sr, createdAt: s.time})
			} else {
				l.sendAnti(sr)
			}
		}
	}
	// Requeue the rolled-back inputs (except ones just retracted or
	// previously annihilated).
	l.q.ResetFloor()
	for _, s := range suffix {
		for _, in := range l.inLog[s.inputs.lo:s.inputs.hi] {
			if l.dead[in.id] {
				delete(l.dead, in.id)
				continue
			}
			l.q.Push(uint64(s.time), in)
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
		l.lvt = l.steps[idx-1].time
	} else {
		l.lvt = 0
	}
	l.st.Hist(metrics.HistRollbackDepth).Observe(l.st.EventsRolledBack - undoneBefore)
	l.trsh.Span(trace.PhaseRollback, begin, ts)
	l.cfg.Chaos.Stall(l.id, inject.PhaseRollback)
}

// sendAnti queues an anti-message for a previously sent message; the batch
// is delivered at the next flush. Link FIFO, which the batcher preserves,
// puts it behind its original.
func (l *tlp[V]) sendAnti(sr sentRec[V]) {
	l.st.AntiMessagesSent++
	l.sh.net.Transit.Add(1)
	l.batch.Put(sr.dst, lpnet.Msg[V]{Kind: lpnet.Anti, From: l.id, ID: sr.id, Time: sr.time, Gate: sr.gate, Value: sr.value})
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
	next := l.nextLive()
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
	m := l.nextLive()
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
	l.slot.SetBound(uint64(gvt))
	idx := sort.Search(len(l.steps), func(i int) bool { return l.steps[i].time >= gvt })
	if idx > 0 {
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

// handle processes one inbound message; it returns false on terminate.
func (l *tlp[V]) handle(m lpnet.Msg[V]) bool {
	switch m.Kind {
	case lpnet.Value:
		l.sh.net.Settle(m.From)
		l.st.MessagesRecv++
		l.handledSince++
		if m.Time < l.fossilFloor {
			l.sh.net.Fail(&supervise.SimError{
				Engine: l.sh.engine, LP: l.id, Phase: "handle", ModeledTime: m.Time,
				Kind:  supervise.KindCausality,
				Cause: fmt.Errorf("received message at %d below GVT %d", m.Time, l.fossilFloor),
			})
			return false
		}
		if m.Time <= l.lvt {
			l.rollback(m.Time)
		}
		l.q.ResetFloor()
		l.q.Push(uint64(m.Time), qevent[V]{gate: m.Gate, value: m.Value, id: m.ID})
	case lpnet.Anti:
		l.sh.net.Settle(m.From)
		l.st.AntiMessagesRecv++
		l.handledSince++
		if m.Time < l.fossilFloor {
			l.sh.net.Fail(&supervise.SimError{
				Engine: l.sh.engine, LP: l.id, Phase: "handle", ModeledTime: m.Time,
				Kind:  supervise.KindCausality,
				Cause: fmt.Errorf("received anti-message at %d below GVT %d", m.Time, l.fossilFloor),
			})
			return false
		}
		if m.Time <= l.lvt {
			l.rollback(m.Time)
		}
		// The original is now unprocessed (FIFO per link guarantees it
		// arrived first; if it had been processed, the rollback above just
		// requeued it). Tombstone it.
		l.dead[m.ID] = true
	case lpnet.GVTRound:
		l.sh.replies <- gvtReply{handled: l.handledSince, localMin: l.localMin()}
		l.handledSince = 0
	case lpnet.GVTDone:
		l.fossilCollect(m.Time)
	case lpnet.Terminate:
		return false
	}
	return true
}

// handleAll processes a batch; it returns false on terminate.
func (l *tlp[V]) handleAll(batch []lpnet.Msg[V]) bool {
	for _, m := range batch {
		if !l.handle(m) {
			return false
		}
	}
	return true
}

// run is the LP goroutine body. Batched sends obey one rule: every path
// that can reach WaitDrain (or park the LP in any way) flushes first, so no
// message sits in a local batch while its sender sleeps — GVT quiescence
// and deadlock-freedom both depend on it.
func (l *tlp[V]) run(initial []kernel.EventT[V]) {
	l.slot.SetPhase(supervise.PhaseRun)
	defer l.slot.SetPhase(supervise.PhaseDone)
	if !l.sh.boot {
		l.execInitial(initial)
		l.batch.Flush()
	}
	for {
		if l.sh.net.Aborted() {
			return
		}
		l.buf = l.sh.net.Inboxes[l.id].TryDrain(l.buf[:0])
		if !l.handleAll(l.buf) {
			return
		}
		l.batch.Flush() // anti-messages from straggler-induced rollbacks
		if l.sh.paused.Load() {
			// Processing is frozen during GVT computation; keep serving
			// rounds until released.
			begin := l.trsh.Now()
			l.slot.SetPhase(supervise.PhaseBarrier)
			var ok bool
			l.buf, ok = l.sh.net.Inboxes[l.id].WaitDrain(l.buf[:0])
			l.slot.SetPhase(supervise.PhaseRun)
			l.trsh.Span(trace.PhaseBarrier, begin, trace.NoTick)
			if !ok || !l.handleAll(l.buf) {
				return
			}
			l.batch.Flush()
			continue
		}
		t := l.nextLive()
		// The effective optimism window is the narrowest of the configured
		// window, the adaptive controller's output, and any memory-throttle
		// clamp the coordinator imposed. The clamp folds last so it wins
		// regardless of what the controller asked for.
		win := l.cfg.Window
		if aw := circuit.Tick(l.sh.adaptWin.Load()); aw != 0 && (win == 0 || aw < win) {
			win = aw
		}
		if cl := circuit.Tick(l.sh.clamp.Load()); cl != 0 && (win == 0 || cl < win) {
			win = cl
		}
		blocked := t == infTick || t > l.sh.until ||
			(win > 0 && l.gvt < infTick-win && t > l.gvt+win)
		if blocked {
			// Nothing executable: flush provably wrong lazy sends, then
			// sleep until messages (or a GVT round) arrive.
			l.st.Blocks++
			l.flushLazyBelowNext()
			l.batch.Flush()
			l.cfg.Chaos.Stall(l.id, inject.PhaseBlock)
			begin := l.trsh.Now()
			l.slot.SetNext(uint64(t))
			l.slot.SetPhase(supervise.PhaseBlock)
			l.sh.idle.Add(1)
			var ok bool
			l.buf, ok = l.sh.net.Inboxes[l.id].WaitDrain(l.buf[:0])
			l.sh.idle.Add(-1)
			l.slot.SetPhase(supervise.PhaseRun)
			l.trsh.Span(trace.PhaseBlock, begin, trace.NoTick)
			if !ok || !l.handleAll(l.buf) {
				return
			}
			l.batch.Flush()
			continue
		}
		events := l.popBatch(t)
		if len(events) == 0 {
			continue
		}
		processed := l.sh.events.Add(uint64(len(events)))
		if max := l.sh.cfg.MaxEvents; max > 0 && processed > max {
			l.sh.net.Fail(&supervise.SimError{
				Engine: l.sh.engine, LP: l.id, Phase: "run", ModeledTime: t,
				Kind:  supervise.KindEventLimit,
				Cause: fmt.Errorf("event limit %d exceeded at time %d", max, t),
			})
			return
		}
		// Publish the event count before executing so a long evaluation is
		// still visible to the watchdog as progress.
		l.slot.AddEvents(uint64(len(events)))
		l.execStep(t, events, false)
		l.slot.SetLVT(uint64(l.lvt))
		if err := l.q.Err(); err != nil {
			l.sh.net.Fail(&supervise.SimError{
				Engine: l.sh.engine, LP: l.id, Phase: "eventq", ModeledTime: l.lvt,
				Kind: supervise.KindCausality, Cause: err,
			})
			return
		}
		l.batch.Flush()
		l.cfg.Chaos.Stall(l.id, inject.PhaseEvaluate)
		// Yield between speculative steps. Without this, a single-core
		// scheduler lets one LP race arbitrarily far ahead before its
		// neighbours run at all, and the eventual stragglers roll back
		// nearly everything — optimism thrash that exists only as a
		// scheduling artifact.
		runtime.Gosched()
	}
}
