package lpnet

import (
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/metrics"
	"repro/internal/sim/kernel"
	"repro/internal/sim/supervise"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Launch configures Run.
type Launch struct {
	// Coordinate, when non-nil, runs on the calling goroutine while the
	// LPs do (Time Warp's GVT loop).
	Coordinate func()
	// Idle, when non-nil, reports whether every local LP is parked; the
	// distributed heartbeat carries it beside the event count.
	Idle func() bool
}

// Run routes the stimulus and drives every local LP on its own goroutine
// until all return, under the watchdog when one is armed, and returns the
// error the latch recorded if the run was aborted. Every LP must have
// joined. A panicking LP fails the run cleanly — the abort wakes and
// drains every sibling — instead of crashing the process. Remote LPs are
// marked done on the scoreboard, so a hang report shows them as not ours
// rather than stuck at init.
func (n *Net[V]) Run(l Launch) error {
	if n.seam != nil {
		defer n.bindSeam(func() (uint64, bool) {
			return n.events.Load(), l.Idle != nil && l.Idle()
		})()
	}
	var wd *supervise.Watchdog
	if n.hang > 0 {
		wcfg := supervise.WatchConfig{
			Engine: n.engine, Timeout: n.hang, Board: n.board,
			QueueDepth: func(i int) int { return n.Inboxes[i].Len() },
			OnHang:     n.Fail,
		}
		if n.seam != nil {
			wcfg.Transport = n.seam.TransportState
		}
		wd = supervise.Watch(wcfg)
		defer wd.Stop()
	}

	initial := n.Route(n.changes, func(lp int, t uint64, ev kernel.EventT[V]) { n.lps[lp].drv.push(t, ev) })
	var wg sync.WaitGroup
	for i := range n.lps {
		slot := n.board.LP(i)
		if !n.Local(i) {
			slot.SetPhase(supervise.PhaseDone)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			drv := n.lps[i].drv
			defer func() {
				if r := recover(); r != nil {
					slot.SetPhase(supervise.PhaseDone)
					n.Fail(supervise.FromPanic(n.engine, i, "run", drv.lvt(), r))
				}
			}()
			metrics.Do(n.sink, n.engine, i, "run", func() { drv.drive(initial[i]) })
		}(i)
	}
	if l.Coordinate != nil {
		metrics.Do(n.sink, n.engine, -1, "coordinate", func() {
			defer func() {
				if r := recover(); r != nil {
					n.Fail(supervise.FromPanic(n.engine, -1, "coordinate", 0, r))
				}
			}()
			l.Coordinate()
		})
	}
	wg.Wait()
	wd.Stop()

	if !n.Aborted() {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.err
}

// Result is what a finished run reports.
type Result[V comparable] struct {
	Values []V
	// Waveform converts to trace.Waveform or trace.WideWaveform.
	Waveform []trace.SampleT[V]
	EndTime  circuit.Tick
	Stats    stats.RunStats
}

// Result reads a finished run: every net's final value from the LP that
// owns it, every local LP's samples merged, the last step any local LP
// executed, and the sink's statistics over the wall time since the
// network was built, with each local LP's mailbox parks folded in. A net
// whose owner runs on another shard keeps the zero value: a fleet's hub
// takes each net from its owner's shard. The engine sets its own gauges
// first.
func (n *Net[V]) Result() Result[V] {
	r := Result[V]{Values: make([]V, len(n.c.Kinds))}
	recs := make([]*trace.RecorderT[V], 0, len(n.locals))
	for _, i := range n.locals {
		l := &n.lps[i]
		n.sink.LP(i).Parks += l.box.Parks()
		for _, g := range l.k.OwnGates() {
			r.Values[g] = l.k.Value(g)
		}
		recs = append(recs, &l.rec)
		r.EndTime = max(r.EndTime, l.drv.lvt())
	}
	r.Waveform = trace.Merge(recs...)
	r.Stats = stats.Collect(n.sink, time.Since(n.start))
	return r
}
