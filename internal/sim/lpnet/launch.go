package lpnet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/metrics"
	"repro/internal/sim/supervise"
)

// Launch configures Run.
type Launch struct {
	// LP is the goroutine body of one logical process.
	LP func(lp int)
	// LVT reads an LP's modeled time for its panic report; Run calls it
	// on the panicking LP's own goroutine.
	LVT func(lp int) circuit.Tick
	// Coordinate, when non-nil, runs on the calling goroutine while the
	// LPs do (Time Warp's GVT loop).
	Coordinate func()
	// Sink carries the pprof labels of every goroutine Run starts.
	Sink metrics.Sink
	// Board is the scoreboard the LPs publish to; nil runs without one.
	Board *supervise.Board
	// HangTimeout, when positive with a Board, arms the progress watchdog.
	HangTimeout time.Duration
	// MaxEvents names the limit in the error of an abort that recorded
	// none.
	MaxEvents uint64
	// Progress is the distributed heartbeat's probe: cumulative processed
	// events and whether every local LP is parked.
	Progress func() (events uint64, idle bool)
}

// Run runs every local LP on its own goroutine until all return, under
// the watchdog when one is armed, and maps an aborted run to its error:
// the one the latch recorded, or else the event limit. A panicking LP
// fails the run cleanly — the abort wakes and drains every sibling —
// instead of crashing the process. Remote LPs are marked done on the
// scoreboard, so a hang report shows them as not ours rather than stuck
// at init.
func (n *Net[V]) Run(l Launch) error {
	if n.seam != nil {
		defer n.bindSeam(l.Progress)()
	}
	var wd *supervise.Watchdog
	if l.HangTimeout > 0 {
		wcfg := supervise.WatchConfig{
			Engine: n.engine, Timeout: l.HangTimeout, Board: l.Board,
			QueueDepth: func(i int) int { return n.Inboxes[i].Len() },
			OnHang:     n.Fail,
		}
		if n.seam != nil {
			wcfg.Transport = n.seam.TransportState
		}
		wd = supervise.Watch(wcfg)
		defer wd.Stop()
	}

	var wg sync.WaitGroup
	body, lvt, sink := l.LP, l.LVT, l.Sink
	for i := range n.Inboxes {
		slot := l.Board.LP(i)
		if !n.Local(i) {
			slot.SetPhase(supervise.PhaseDone)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					slot.SetPhase(supervise.PhaseDone)
					n.Fail(supervise.FromPanic(n.engine, i, "run", lvt(i), r))
				}
			}()
			metrics.Do(sink, n.engine, i, "run", func() { body(i) })
		}(i)
	}
	if l.Coordinate != nil {
		metrics.Do(l.Sink, n.engine, -1, "coordinate", func() {
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
	err := n.err
	n.mu.Unlock()
	if err != nil {
		return err
	}
	return &supervise.SimError{
		Engine: n.engine, LP: -1, Phase: "run", Kind: supervise.KindEventLimit,
		Cause: fmt.Errorf("event limit %d exceeded", l.MaxEvents),
	}
}
