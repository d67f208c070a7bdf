package lpnet

import (
	"repro/internal/circuit"
	"repro/internal/eventq"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// FirstCut is the first boundary every LP captures (ckpt.First).
func (n *Net[V]) FirstCut() circuit.Tick { return ckpt.First(n.cuts, n.boot, n.until) }

// NextCut is the boundary after b, or ckpt.Never past the horizon.
func (n *Net[V]) NextCut(b circuit.Tick) circuit.Tick { return n.cuts.Next(b, n.until) }

// Emit hands a final cut to the run's sink.
func (n *Net[V]) Emit(c *ckpt.Cut[V]) { n.cuts.Sink(c) }

// Pending reports every queue entry of an LP that holds plain events as
// live, for Capture.
func Pending[V comparable](ev kernel.EventT[V]) (kernel.EventT[V], bool) { return ev, true }

// Capture takes LP lp's part of the cut at boundary b. The caller
// guarantees the LP has executed every step at or before b and none after,
// with end the last of them. The pending set q is read the way every
// engine reads its own (eventq.Each); event projects a queue entry onto
// its event and reports whether it is live.
func Capture[V comparable, E any](n *Net[V], lp int, b, end circuit.Tick, q eventq.Queue[E],
	event func(E) (kernel.EventT[V], bool)) *ckpt.Cut[V] {
	k := n.lps[lp].k
	gates := k.OwnGates()
	c := &ckpt.Cut[V]{
		LP: lp, Time: b, EndTime: end, Gates: gates,
		Vals:      make([]V, len(gates)),
		PrevClk:   make([]V, len(gates)),
		Projected: make([]V, len(gates)),
	}
	for i, g := range gates {
		c.Vals[i], c.PrevClk[i], c.Projected[i] = k.Entry(g)
	}
	eventq.Each(q, func(t uint64, e E) {
		if ev, live := event(e); live && n.p.Assign[ev.Gate] == lp {
			c.Events = append(c.Events, ckpt.EventT[V]{Time: t, Gate: ev.Gate, Value: ev.Value})
		}
	})
	prefix := n.lps[lp].prefix
	c.Waveform = append(make([]trace.SampleT[V], 0, len(prefix)+n.lps[lp].rec.Len()), prefix...)
	for _, sm := range n.lps[lp].rec.Samples() {
		if sm.Time > b {
			break
		}
		c.Waveform = append(c.Waveform, sm)
	}
	if n.boot != nil {
		c.EndTime = max(c.EndTime, n.boot.EndTime)
	}
	return c
}
