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
// live, for TakeCut.
func Pending[V comparable](ev kernel.EventT[V]) (kernel.EventT[V], bool) { return ev, true }

// TakeCut captures the LP's part of the cut at its next boundary, Cut,
// and moves Cut on to the boundary after it. The caller guarantees the LP
// has executed every step at or before Cut and none after, the last of
// them at LVT. The pending set is read the way every engine reads its own
// (eventq.Each); event projects a queue entry onto its event and reports
// whether it is live.
func (l *LP[V, E]) TakeCut(event func(E) (kernel.EventT[V], bool)) *ckpt.Cut[V] {
	n, b := l.net, l.Cut
	l.Cut = n.NextCut(b)
	gates := l.K.OwnGates()
	c := &ckpt.Cut[V]{
		LP: l.ID, Time: b, EndTime: l.LVT, Gates: gates,
		Vals:      make([]V, len(gates)),
		PrevClk:   make([]V, len(gates)),
		Projected: make([]V, len(gates)),
	}
	for i, g := range gates {
		c.Vals[i], c.PrevClk[i], c.Projected[i] = l.K.Entry(g)
	}
	eventq.Each(l.Q, func(t uint64, e E) {
		if ev, live := event(e); live && n.p.Assign[ev.Gate] == l.ID {
			c.Events = append(c.Events, ckpt.EventT[V]{Time: t, Gate: ev.Gate, Value: ev.Value})
		}
	})
	own := &n.lps[l.ID]
	c.Waveform = append(make([]trace.SampleT[V], 0, len(own.prefix)+own.rec.Len()), own.prefix...)
	for _, sm := range own.rec.Samples() {
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
