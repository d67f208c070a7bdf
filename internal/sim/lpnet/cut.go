package lpnet

import (
	"repro/internal/circuit"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// Never is the boundary of an LP that captures no further cut.
const Never = circuit.Tick(^uint64(0))

// Cut is one LP's part of the consistent cut at a checkpoint boundary
// (§IV): the state after every step at or before Time and none after. It
// holds the plane entries of the gates the LP owns, their pending events,
// their recorded samples through the boundary behind any boot prefix, and
// the last timestep the LP executed (at least the boot's). The parts of
// every LP, stitched by gate owner, are the snapshot the sequential
// engine takes at the same boundary.
type Cut[V comparable] struct {
	LP   int
	Time circuit.Tick
	// EndTime is the LP's last executed timestep at or before Time, or
	// the boot snapshot's when that is later.
	EndTime circuit.Tick
	// Gates lists the owned gates (shared, read-only); Vals, PrevClk and
	// Projected are parallel to it.
	Gates                    []circuit.GateID
	Vals, PrevClk, Projected []V
	Events                   []ckpt.EventT[V]
	Waveform                 []trace.SampleT[V]
}

// Cuts configures engine-native checkpoints: every local LP captures its
// part of the consistent cut at each multiple of Every inside the horizon
// and hands it to Sink once no rollback can revise it. Sink runs on the
// LP goroutines, in boundary order per LP, and must not block. The
// on-disk snapshot holds scalar values, so only scalar runs take cuts.
type Cuts struct {
	Every circuit.Tick
	Sink  func(*Cut[logic.Value])
}

// FirstCut is the first boundary every LP captures: the first multiple of
// the interval after the boot boundary (or after zero), or Never when
// checkpointing is off or the horizon ends first.
func (n *Net[V]) FirstCut() circuit.Tick {
	if n.sink == nil {
		return Never
	}
	var from circuit.Tick
	if n.boot != nil {
		from = circuit.Tick(n.boot.Time)
	}
	return n.NextCut(from / n.every * n.every)
}

// NextCut is the boundary after b, or Never past the horizon.
func (n *Net[V]) NextCut(b circuit.Tick) circuit.Tick {
	if b > n.until || n.every > n.until-b {
		return Never
	}
	return b + n.every
}

// Emit hands a final cut to the run's sink.
func (n *Net[V]) Emit(c *Cut[V]) { n.sink(c) }

// Pending reports every queue entry of an LP that holds plain events as
// live, for Capture.
func Pending[V comparable](ev kernel.EventT[V]) (kernel.EventT[V], bool) { return ev, true }

// Capture takes LP lp's part of the cut at boundary b. The caller
// guarantees the LP has executed every step at or before b and none after,
// with end the last of them. The pending set q is drained and requeued in
// place the way the sequential engine's snapshot is (ResetFloor lets the
// ascending repush start below the drain's last pop); event projects a
// queue entry onto its event and reports whether it is live.
func Capture[V comparable, E any](n *Net[V], lp int, b, end circuit.Tick, q eventq.Queue[E],
	event func(E) (kernel.EventT[V], bool)) *Cut[V] {
	k := n.lps[lp].k
	gates := k.OwnGates()
	c := &Cut[V]{
		LP: lp, Time: b, EndTime: end, Gates: gates,
		Vals:      make([]V, len(gates)),
		PrevClk:   make([]V, len(gates)),
		Projected: make([]V, len(gates)),
	}
	for i, g := range gates {
		c.Vals[i], c.PrevClk[i], c.Projected[i] = k.Entry(g)
	}
	type entry struct {
		t uint64
		e E
	}
	pending := make([]entry, 0, q.Len())
	for {
		t, e, ok := q.PopMin()
		if !ok {
			break
		}
		pending = append(pending, entry{t, e})
		if ev, live := event(e); live && n.p.Assign[ev.Gate] == lp {
			c.Events = append(c.Events, ckpt.EventT[V]{Time: t, Gate: ev.Gate, Value: ev.Value})
		}
	}
	q.ResetFloor()
	for _, p := range pending {
		q.Push(p.t, p.e)
	}
	prefix := n.lps[lp].prefix
	c.Waveform = append(make([]trace.SampleT[V], 0, len(prefix)+n.lps[lp].rec.Len()), prefix...)
	for _, sm := range n.lps[lp].rec.Samples() {
		if sm.Time > b {
			break
		}
		c.Waveform = append(c.Waveform, sm)
	}
	if n.boot != nil && circuit.Tick(n.boot.EndTime) > c.EndTime {
		c.EndTime = circuit.Tick(n.boot.EndTime)
	}
	return c
}
