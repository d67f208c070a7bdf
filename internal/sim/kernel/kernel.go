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
// incremental state saving Time Warp needs: rolling back a step replays its
// undo log in reverse.
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
	"sync"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/metrics"
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

// LPT is the state of one logical process over value type V.
type LPT[V comparable] struct {
	// Self is this LP's block index; Owner maps gate -> block.
	Self  int
	Owner []int

	c         *circuit.Circuit
	val       []V
	prevClk   []V
	projected []V
	isWatched []bool
	ownGates  []circuit.GateID
	pl        *circuit.Plane[V]

	stamp   []uint64
	epoch   uint64
	dirty   []circuit.GateID
	dstSeen []bool

	sweep      int
	sweepGates []circuit.GateID

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

// NewOn builds an LP executor on plane pl for block self of the
// partition-owner map.
func NewOn[V comparable](pl *circuit.Plane[V], c *circuit.Circuit, owner []int, self int, sys logic.System, watched []circuit.GateID, ownGates []circuit.GateID) *LPT[V] {
	val, prevClk := pl.InitState(c, sys)
	projected := make([]V, len(val))
	copy(projected, val)
	isWatched := make([]bool, len(c.Gates))
	for _, g := range watched {
		isWatched[g] = true
	}
	nBlocks := 0
	for _, o := range owner {
		if o+1 > nBlocks {
			nBlocks = o + 1
		}
	}
	return &LPT[V]{
		Self:      self,
		Owner:     owner,
		c:         c,
		val:       val,
		prevClk:   prevClk,
		projected: projected,
		isWatched: isWatched,
		ownGates:  ownGates,
		pl:        pl,
		stamp:     make([]uint64, len(c.Gates)),
		dirty:     make([]circuit.GateID, 0, 64),
		dstSeen:   make([]bool, nBlocks),
	}
}

// New builds a scalar LP executor.
func New(c *circuit.Circuit, owner []int, self int, sys logic.System, watched []circuit.GateID, ownGates []circuit.GateID) *LP {
	return NewOn(circuit.Scalar, c, owner, self, sys, watched, ownGates)
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
	own := make([]bool, len(lp.c.Gates))
	for _, g := range lp.ownGates {
		own[g] = true
	}
	if levels, err := lp.c.Levelize(); err == nil {
		for _, level := range levels {
			for _, g := range level {
				if own[g] && !lp.c.Kinds[g].Source() {
					lp.sweepGates = append(lp.sweepGates, g)
				}
			}
		}
		return
	}
	for _, g := range lp.ownGates {
		if !lp.c.Kinds[g].Source() {
			lp.sweepGates = append(lp.sweepGates, g)
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
	lp.epoch++
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
		if lp.Owner[ev.Gate] == lp.Self && lp.isWatched[ev.Gate] && lp.Record != nil {
			lp.Record(t, ev.Gate, ev.Value)
		}
		for _, out := range lp.c.FanoutAdj.Row(ev.Gate) {
			if lp.Owner[out] != lp.Self {
				continue
			}
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
	for _, g := range lp.dirty {
		out, clkSample := lp.pl.EvalGate(lp.c, g, lp.val, lp.prevClk)
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
		// Remote consumers get one message per destination LP.
		for i := range lp.dstSeen {
			lp.dstSeen[i] = false
		}
		for _, dst := range lp.c.FanoutAdj.Row(g) {
			db := lp.Owner[dst]
			if db == lp.Self || lp.dstSeen[db] {
				continue
			}
			lp.dstSeen[db] = true
			lp.Send(db, due, g, out)
			st.MessagesSent++
		}
	}
}

// StepParallel is Step with the evaluation phase fan-out across workers:
// the dirty gates are split into contiguous chunks, each chunk's outputs
// are computed concurrently (evaluation is pure, so this is race-free),
// and the commit (state writes, scheduling, sends) runs serially in
// deterministic order. It returns the largest chunk size, which is the
// per-step critical path of the intra-cluster synchronous phase — the
// quantity the hybrid engine's cost model needs.
//
// This is the paper's hierarchical synchronization: barrier-synchronous
// evaluation inside a cluster, with whatever protocol the caller runs
// between clusters.
func (lp *LPT[V]) StepParallel(t circuit.Tick, events []EventT[V], initial bool, undo *UndoT[V], st *metrics.LPCounters, workers int, outBuf, clkBuf []V) (maxChunk int) {
	lp.apply(t, events, initial, undo, st)
	if len(lp.dirty) == 0 {
		return 0
	}

	// Parallel evaluation into the caller's buffers.
	if workers > len(lp.dirty) {
		workers = len(lp.dirty)
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (len(lp.dirty) + workers - 1) / workers
	maxChunk = chunk
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(lp.dirty) {
			break
		}
		hi := lo + chunk
		if hi > len(lp.dirty) {
			hi = len(lp.dirty)
		}
		wg.Add(1)
		go func(gs []circuit.GateID) {
			defer wg.Done()
			for _, g := range gs {
				outBuf[g], clkBuf[g] = lp.pl.EvalGate(lp.c, g, lp.val, lp.prevClk)
			}
		}(lp.dirty[lo:hi])
	}
	wg.Wait()

	// Serial commit in deterministic (dirty list) order.
	for _, g := range lp.dirty {
		st.Evaluations++
		out, clkSample := outBuf[g], clkBuf[g]
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
		for i := range lp.dstSeen {
			lp.dstSeen[i] = false
		}
		for _, dst := range lp.c.FanoutAdj.Row(g) {
			db := lp.Owner[dst]
			if db == lp.Self || lp.dstSeen[db] {
				continue
			}
			lp.dstSeen[db] = true
			lp.Send(db, due, g, out)
			st.MessagesSent++
		}
	}
	return maxChunk
}

// Rollback undoes a sequence of steps by replaying their undo logs in
// reverse order (most recent first).
func (lp *LPT[V]) Rollback(undos []*UndoT[V], st *metrics.LPCounters) {
	for i := len(undos) - 1; i >= 0; i-- {
		u := undos[i]
		for j := len(u.projs) - 1; j >= 0; j-- {
			lp.projected[u.projs[j].gate] = u.projs[j].old
		}
		for j := len(u.clks) - 1; j >= 0; j-- {
			lp.prevClk[u.clks[j].gate] = u.clks[j].old
		}
		for j := len(u.vals) - 1; j >= 0; j-- {
			lp.val[u.vals[j].gate] = u.vals[j].old
		}
		st.EventsRolledBack += uint64(len(u.vals))
	}
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
