// Package kernel implements the per-LP timestep executor shared by the
// asynchronous engines (conservative and optimistic).
//
// A logical process owns a subset of the gates. It keeps a full-size ghost
// copy of the net state: values of its own gates plus the last-received
// values of remote nets its gates read. One Step applies all net changes
// for a single simulated time (local events and arrived remote messages
// alike), then evaluates each affected owned gate once against the settled
// values — the same two-phase semantics as the sequential reference, which
// is what makes all engines produce identical waveforms.
//
// Steps can capture an undo log of every state write, which is exactly the
// incremental state saving Time Warp needs: consecutive steps append to one
// log, and rolling back to a mark replays the log after it in reverse.
//
// The executor is generic over the value type V and built on a
// circuit.Plane[V]: logic.Value for scalar runs (the LP/Event/Undo aliases
// preserve that API), and logic.Word for wide runs, where every event
// carries 64 packed vector lanes and one Step evaluates 64 vectors per
// gate op. The protocol-visible behavior is identical in both
// instantiations — an event fires when the word differs in any lane, a
// superset of each lane's scalar events, and gate evaluation is idempotent
// under unchanged inputs, so each lane of a wide run reproduces the scalar
// run exactly.
package kernel

import (
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim/phase"
)

// EventT is one net value change to apply, carrying a scalar value or a
// 64-lane word depending on the instantiation.
type EventT[V comparable] struct {
	Gate  circuit.GateID
	Value V
}

// Event is the scalar event.
type Event = EventT[logic.Value]

// WideEvent is the 64-lane event.
type WideEvent = EventT[logic.Word]

// valChange records a single state write for rollback.
type valChange[V comparable] struct {
	gate circuit.GateID
	old  V
}

// UndoT is the inverse of one Step: replaying it restores the LP state to
// the instant before the step ran. In the wide instantiation each entry
// snapshots a whole 64-lane word.
type UndoT[V comparable] struct {
	vals  []valChange[V]
	clks  []valChange[V]
	projs []valChange[V]
}

// Undo is the scalar undo log.
type Undo = UndoT[logic.Value]

// Words reports the saved state volume in value-words, the quantity the
// cost model prices for state saving.
func (u *UndoT[V]) Words() uint64 {
	return uint64(len(u.vals) + len(u.clks) + len(u.projs))
}

// NewUndo returns an undo log with pre-grown log capacity, so pooled
// records born on a free-list miss skip the append growth chain and land
// near their steady-state size immediately.
func NewUndo[V comparable](vals, clks, projs int) *UndoT[V] {
	return &UndoT[V]{
		vals:  make([]valChange[V], 0, vals),
		clks:  make([]valChange[V], 0, clks),
		projs: make([]valChange[V], 0, projs),
	}
}

// Reset clears the undo for reuse.
func (u *UndoT[V]) Reset() {
	u.vals = u.vals[:0]
	u.clks = u.clks[:0]
	u.projs = u.projs[:0]
}

// UndoMark is a position in an undo log that several steps append to:
// the length of each of its three change logs. The zero mark is the start
// of the log.
type UndoMark struct{ vals, clks, projs int }

// Mark is the current end of the log.
func (u *UndoT[V]) Mark() UndoMark { return UndoMark{len(u.vals), len(u.clks), len(u.projs)} }

// Words is the volume logged before the mark, in value-words.
func (m UndoMark) Words() uint64 { return uint64(m.vals + m.clks + m.projs) }

// Minus moves the mark down by base, for a log whose entries before base
// were dropped.
func (m UndoMark) Minus(base UndoMark) UndoMark {
	return UndoMark{m.vals - base.vals, m.clks - base.clks, m.projs - base.projs}
}

// DropBefore discards the entries logged before m, compacting the log in
// place; marks taken after m must be moved down by m (Minus).
func (u *UndoT[V]) DropBefore(m UndoMark) {
	u.vals = u.vals[:copy(u.vals, u.vals[m.vals:])]
	u.clks = u.clks[:copy(u.clks, u.clks[m.clks:])]
	u.projs = u.projs[:copy(u.projs, u.projs[m.projs:])]
}

// LPT is the state of one logical process over value type V.
type LPT[V comparable] struct {
	c         *circuit.Circuit
	val       []V
	prevClk   []V
	projected []V
	isWatched []bool // watched nets the LP owns
	ownGates  []circuit.GateID
	pl        *circuit.Plane[V]

	// fan is the LP's view of c.FanoutAdj, compiled once: its row of net g
	// lists the fanouts of g the LP owns, which a change of g dirties. An
	// owned gate's output changes are sent to its readers in graph.
	fan   circuit.Adj
	graph *partition.Graph

	stamp []uint32
	epoch uint32
	dirty []circuit.GateID

	sweep      int
	sweepGates []circuit.GateID

	// parOut and parClk receive StepParallel's concurrent evaluations.
	parOut, parClk []V

	// Schedule receives locally owned future events (time, gate, value).
	Schedule func(t circuit.Tick, g circuit.GateID, v V)
	// Send receives cross-LP messages (destination, time, gate, value).
	Send func(dst int, t circuit.Tick, g circuit.GateID, v V)
	// Record receives committed watched-net changes.
	Record func(t circuit.Tick, g circuit.GateID, v V)
}

// LP is the scalar logical-process executor.
type LP = LPT[logic.Value]

// WideLP is the 64-lane logical-process executor.
type WideLP = LPT[logic.Word]

// NewOn builds an LP executor on plane pl for block self of partition p.
// The owner map is read here, to compile the LP's fanout view, and never
// again.
func NewOn[V comparable](pl *circuit.Plane[V], c *circuit.Circuit, p *partition.Partition, self int, sys logic.System, watched []circuit.GateID, ownGates []circuit.GateID) *LPT[V] {
	val, prevClk := pl.InitState(c, sys)
	projected := make([]V, len(val))
	copy(projected, val)
	isWatched := make([]bool, len(c.Kinds))
	for _, g := range watched {
		isWatched[g] = p.Assign[g] == self
	}
	return &LPT[V]{
		c:         c,
		val:       val,
		prevClk:   prevClk,
		projected: projected,
		isWatched: isWatched,
		ownGates:  ownGates,
		pl:        pl,
		fan:       ownedFanouts(c, p.Assign, self),
		graph:     p.Graph(c),
		stamp:     make([]uint32, len(c.Kinds)),
		dirty:     make([]circuit.GateID, 0, 64),
	}
}

// ownedFanouts compiles block self's view of c.FanoutAdj: the fanouts of
// every net that self owns. The rows are counted, then filled from the
// flat fanout array, so its arrays are allocated once at their exact size.
func ownedFanouts(c *circuit.Circuit, owner []int, self int) circuit.Adj {
	fan := circuit.Adj{Off: make([]int32, len(c.Kinds)+1)}
	for g := range c.Kinds {
		fan.Off[g+1] = fan.Off[g]
		for _, out := range c.FanoutAdj.Row(circuit.GateID(g)) {
			if owner[out] == self {
				fan.Off[g+1]++
			}
		}
	}
	fan.Idx = make([]circuit.GateID, 0, fan.Off[len(c.Kinds)])
	for _, out := range c.FanoutAdj.Idx {
		if owner[out] == self {
			fan.Idx = append(fan.Idx, out)
		}
	}
	return fan
}

// New builds a scalar LP executor for block self of an owner map.
func New(c *circuit.Circuit, owner []int, self int, sys logic.System, watched []circuit.GateID, ownGates []circuit.GateID) *LP {
	p := &partition.Partition{Blocks: self + 1, Assign: owner}
	for _, b := range owner {
		p.Blocks = max(p.Blocks, b+1)
	}
	return NewOn(circuit.Scalar, c, p, self, sys, watched, ownGates)
}

// EnableSweep arms the oblivious block sweep: whenever a step's dirty set
// reaches threshold gates, the evaluation phase abandons event-driven
// selection and sweeps the LP's whole owned block in levelized order
// instead. The sweep is exact — evaluation against settled inputs is
// idempotent and the projected-value filter suppresses events for
// unchanged outputs — so it only trades bookkeeping for raw evaluation.
// Wide runs always arm it: with 64 packed vector lanes a net fires when
// any lane changes, so the dirty set saturates toward the whole block and
// the per-gate selection machinery (stamps, fanout walks) costs more than
// obliviously evaluating everything 64 vectors at a time. A threshold
// <= 0 disables the sweep (the scalar default).
func (lp *LPT[V]) EnableSweep(threshold int) {
	lp.sweep = threshold
	if threshold <= 0 || lp.sweepGates != nil {
		return
	}
	own := make([]bool, len(lp.c.Kinds))
	for _, g := range lp.ownGates {
		own[g] = true
	}
	for _, level := range lp.c.Levels {
		for _, g := range level {
			if own[g] {
				lp.sweepGates = append(lp.sweepGates, g)
			}
		}
	}
}

// SweepThreshold is the shared policy for arming the oblivious sweep on a
// block of the given size: sweep once the dirty set covers half the block,
// but never on trivially small blocks where the event-driven bookkeeping
// is already cheap.
func SweepThreshold(blockSize int) int {
	t := blockSize / 2
	if t < 8 {
		t = 8
	}
	return t
}

// applySweep swaps the dirty set for the full levelized block when the
// sweep is armed and the threshold is met.
func (lp *LPT[V]) applySweep() {
	if lp.sweep > 0 && len(lp.dirty) >= lp.sweep {
		lp.dirty = append(lp.dirty[:0], lp.sweepGates...)
	}
}

// Value returns the LP's current view of a net.
func (lp *LPT[V]) Value(g circuit.GateID) V { return lp.val[g] }

// Values exposes the full ghost state (for final-state assembly).
func (lp *LPT[V]) Values() []V { return lp.val }

// OwnGates lists the gates this LP owns; the slice must not be written.
func (lp *LPT[V]) OwnGates() []circuit.GateID { return lp.ownGates }

// Project records v as the last output projected for net g, the way the
// sequential engine notes a stimulus change to a primary input, which no
// evaluation projects (nothing reads a source's projection; a checkpoint
// carries it).
func (lp *LPT[V]) Project(g circuit.GateID, v V) { lp.projected[g] = v }

// Entry reads the three plane entries of net g: its value, its last clock
// sample and the last output projected for it.
func (lp *LPT[V]) Entry(g circuit.GateID) (val, prevClk, projected V) {
	return lp.val[g], lp.prevClk[g], lp.projected[g]
}

// SeedState overwrites the LP's three value planes from a checkpoint.
// The planes are full-size (ghost copies included), so seeding every LP
// with the same globally consistent snapshot reproduces exactly the
// ghost views a live run would have at that boundary. Engines call it
// before processing any event when restoring.
func (lp *LPT[V]) SeedState(vals, prevClk, projected []V) {
	copy(lp.val, vals)
	copy(lp.prevClk, prevClk)
	copy(lp.projected, projected)
}

// apply is the first phase of a step, shared by Step and StepParallel: it
// writes the events for time t into the state (logging the old values
// into undo when non-nil), records owned watched nets, and selects the
// owned gates to evaluate into lp.dirty — every owned fanout of a changed
// net, the whole owned block on the initial step, or the levelized block
// when the sweep threshold is met.
func (lp *LPT[V]) apply(t circuit.Tick, events []EventT[V], initial bool, undo *UndoT[V], st *metrics.LPCounters) {
	if lp.epoch++; lp.epoch == 0 {
		// The stamps wrapped: forget every old epoch.
		clear(lp.stamp)
		lp.epoch = 1
	}
	lp.dirty = lp.dirty[:0]
	st.Steps++

	for _, ev := range events {
		st.EventsApplied++
		if lp.val[ev.Gate] == ev.Value {
			continue
		}
		if undo != nil {
			undo.vals = append(undo.vals, valChange[V]{ev.Gate, lp.val[ev.Gate]})
		}
		lp.val[ev.Gate] = ev.Value
		if lp.isWatched[ev.Gate] && lp.Record != nil {
			lp.Record(t, ev.Gate, ev.Value)
		}
		for _, out := range lp.fan.Row(ev.Gate) {
			if lp.stamp[out] != lp.epoch {
				lp.stamp[out] = lp.epoch
				lp.dirty = append(lp.dirty, out)
			}
		}
	}
	if initial {
		lp.dirty = lp.dirty[:0]
		for _, g := range lp.ownGates {
			if !lp.c.Kinds[g].Source() {
				lp.dirty = append(lp.dirty, g)
			}
		}
	} else {
		lp.applySweep()
	}
}

// Step applies the events for time t, then evaluates affected owned gates.
// When undo is non-nil every state write is logged into it. Counters are
// accumulated into st.
func (lp *LPT[V]) Step(t circuit.Tick, events []EventT[V], initial bool, undo *UndoT[V], st *metrics.LPCounters) {
	lp.apply(t, events, initial, undo, st)
	lp.commit(t, false, undo, st)
}

// commit is the second phase of a step, shared by Step and StepParallel:
// in dirty-list order it takes each gate's evaluation — computed here, or
// read from the parallel buffers when evaluated is set — stores the clock
// sample and, when the output differs from the projected value, schedules
// it locally and sends one message per remote destination LP. Writes are
// logged into undo when non-nil.
func (lp *LPT[V]) commit(t circuit.Tick, evaluated bool, undo *UndoT[V], st *metrics.LPCounters) {
	for _, g := range lp.dirty {
		var out, clkSample V
		if evaluated {
			out, clkSample = lp.parOut[g], lp.parClk[g]
		} else {
			out, clkSample = lp.pl.EvalGate(lp.c, g, lp.val, lp.projected, lp.prevClk)
		}
		st.Evaluations++
		if clkSample != lp.prevClk[g] {
			if undo != nil {
				undo.clks = append(undo.clks, valChange[V]{g, lp.prevClk[g]})
			}
			lp.prevClk[g] = clkSample
		}
		if out == lp.projected[g] {
			continue
		}
		if undo != nil {
			undo.projs = append(undo.projs, valChange[V]{g, lp.projected[g]})
		}
		lp.projected[g] = out
		due := t + lp.c.Delays[g]
		lp.Schedule(due, g, out)
		st.EventsScheduled++
		// Remote consumers get one message per reading LP.
		readers := lp.graph.Readers(g)
		for _, dst := range readers {
			lp.Send(int(dst), due, g, out)
		}
		st.MessagesSent += uint64(len(readers))
	}
}

// StepParallel is Step with the evaluation fanned out over pool, whose
// body must be this LP's EvalPart: contiguous parts of the dirty gates are
// evaluated concurrently (evaluation is pure, so this is race-free), then
// committed serially in deterministic order. It returns the largest part,
// the per-step critical path of the intra-cluster synchronous phase that
// the hybrid engine's cost model needs, or a part's panic, in which case
// nothing is committed.
//
// This is the paper's hierarchical synchronization: barrier-synchronous
// evaluation inside a cluster, with whatever protocol the caller runs
// between clusters.
func (lp *LPT[V]) StepParallel(t circuit.Tick, events []EventT[V], initial bool, undo *UndoT[V], st *metrics.LPCounters, pool *phase.Pool) (maxChunk int, err error) {
	lp.apply(t, events, initial, undo, st)
	if len(lp.dirty) == 0 {
		return 0, nil
	}
	if lp.parOut == nil {
		lp.parOut = make([]V, len(lp.val))
		lp.parClk = make([]V, len(lp.val))
	}
	parts := min(pool.Size(), len(lp.dirty))
	if err := pool.Run(t, "eval", parts); err != nil {
		return 0, err
	}
	lp.commit(t, true, undo, st)
	return (len(lp.dirty) + parts - 1) / parts, nil
}

// EvalPart is the pool body of StepParallel: it evaluates part of parts
// of the step's dirty gates into the LP's parallel buffers.
func (lp *LPT[V]) EvalPart(part, parts int) {
	n := len(lp.dirty)
	for _, g := range lp.dirty[part*n/parts : (part+1)*n/parts] {
		lp.parOut[g], lp.parClk[g] = lp.pl.EvalGate(lp.c, g, lp.val, lp.projected, lp.prevClk)
	}
}

// Rollback undoes every write logged into u after mark, newest first, and
// truncates u back to mark: the LP's state is then what it was when mark
// was taken. The three logs write disjoint planes, so each is replayed in
// reverse on its own.
func (lp *LPT[V]) Rollback(u *UndoT[V], mark UndoMark, st *metrics.LPCounters) {
	for j := len(u.projs) - 1; j >= mark.projs; j-- {
		lp.projected[u.projs[j].gate] = u.projs[j].old
	}
	for j := len(u.clks) - 1; j >= mark.clks; j-- {
		lp.prevClk[u.clks[j].gate] = u.clks[j].old
	}
	for j := len(u.vals) - 1; j >= mark.vals; j-- {
		lp.val[u.vals[j].gate] = u.vals[j].old
	}
	st.EventsRolledBack += uint64(len(u.vals) - mark.vals)
	u.vals, u.clks, u.projs = u.vals[:mark.vals], u.clks[:mark.clks], u.projs[:mark.projs]
}

// SnapshotT copies the LP-relevant state (own gates and ghost nets) for
// full-copy state saving. The returned slices are keyed by position in
// relevant; Restore reverses it.
type SnapshotT[V comparable] struct {
	val     []V
	prevClk []V
	proj    []V
}

// Snapshot is the scalar snapshot.
type Snapshot = SnapshotT[logic.Value]

// Words reports the snapshot volume in value-words.
func (s *SnapshotT[V]) Words() uint64 {
	return uint64(len(s.val) + len(s.prevClk) + len(s.proj))
}

// RelevantNets lists the nets whose state matters to this LP: its own
// gates plus every remote net an owned gate reads.
func (lp *LPT[V]) RelevantNets() []circuit.GateID {
	seen := make(map[circuit.GateID]bool)
	var nets []circuit.GateID
	for _, g := range lp.ownGates {
		if !seen[g] {
			seen[g] = true
			nets = append(nets, g)
		}
		for _, f := range lp.c.FaninAdj.Row(g) {
			if !seen[f] {
				seen[f] = true
				nets = append(nets, f)
			}
		}
	}
	return nets
}

// TakeSnapshot captures the state of the given nets.
func (lp *LPT[V]) TakeSnapshot(nets []circuit.GateID, into *SnapshotT[V]) {
	into.val = resize(into.val, len(nets))
	into.prevClk = resize(into.prevClk, len(nets))
	into.proj = resize(into.proj, len(nets))
	for i, g := range nets {
		into.val[i] = lp.val[g]
		into.prevClk[i] = lp.prevClk[g]
		into.proj[i] = lp.projected[g]
	}
}

// RestoreSnapshot writes a snapshot back.
func (lp *LPT[V]) RestoreSnapshot(nets []circuit.GateID, s *SnapshotT[V]) {
	for i, g := range nets {
		lp.val[g] = s.val[i]
		lp.prevClk[g] = s.prevClk[i]
		lp.projected[g] = s.proj[i]
	}
}

func resize[V comparable](buf []V, n int) []V {
	if cap(buf) < n {
		return make([]V, n)
	}
	return buf[:n]
}
