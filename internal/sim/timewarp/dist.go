package timewarp

import (
	"fmt"
	"slices"

	"repro/internal/circuit"
	"repro/internal/dist/wire"
	"repro/internal/sim/lpnet"
	"repro/internal/sim/supervise"
)

// checkDist validates a distributed configuration. The Time Warp
// protocol itself distributes — values and anti-messages are
// point-to-point and GVT becomes the seam's hub-driven conversation —
// but the single-coordinator control loops that need a frozen global
// view do not: the memory throttle and the adaptive window controller
// both sample every LP's state during the pause, and intra-LP clusters
// barrier inside one process.
func checkDist[V comparable](cfg ConfigT[V]) error {
	if cfg.Dist == nil {
		return nil
	}
	if cfg.IntraWorkers > 1 {
		return fmt.Errorf("timewarp: distributed runs do not support hybrid intra-LP clusters")
	}
	if cfg.HistoryLimit > 0 {
		return fmt.Errorf("timewarp: distributed runs do not support the history-limit memory throttle")
	}
	if cfg.Adapt != nil {
		return fmt.Errorf("timewarp: distributed runs do not support the adaptive window controller")
	}
	return nil
}

// distCoordinate is the worker half of distributed GVT. The hub owns
// pacing and conclusion — it repeats rounds until every shard reports
// quiet with matching, stable wire counts (Mattern-style message
// counting) — while this loop answers each round with the single-process
// coordinator's own handling round (poll) over the local LPs, folded into
// one report. A concluded GVT is applied by the same GVTDone / Terminate
// broadcast the local protocol uses, so the LPs cannot tell the
// difference.
func distCoordinate[V comparable](sh *shared[V]) (uint64, circuit.Tick) {
	dist, lps := sh.cfg.Dist, sh.net.Locals()
	var rounds uint64
	gvt := circuit.Tick(0)
	var mins []circuit.Tick
	for {
		cmd, err := dist.GVTNext()
		if err != nil {
			// Link death or engine abort; fail is idempotent and the
			// transport OnDown hook usually got there first.
			sh.net.Fail(&supervise.SimError{
				Engine: sh.engine, LP: -1, Phase: "gvt",
				Kind: supervise.KindInternal, Cause: err,
			})
			return rounds, gvt
		}
		switch cmd.Kind {
		case wire.CmdRound:
			sh.paused.Store(true)
			var handled uint64
			var ok bool
			if handled, mins, ok = sh.poll(lps, mins[:0]); !ok {
				sh.paused.Store(false)
				return rounds, gvt
			}
			rounds++
			quiet := handled == 0 && sh.net.Transit.Load() == 0
			dist.GVTReport(cmd.Round, quiet, uint64(slices.Min(mins)))
		case wire.CmdDone:
			gvt = circuit.Tick(cmd.GVT)
			sh.paused.Store(false)
			sh.tell(lps, lpnet.Msg[V]{Kind: lpnet.GVTDone, Time: gvt})
		case wire.CmdTerminate:
			gvt = circuit.Tick(cmd.GVT)
			sh.tell(lps, lpnet.Msg[V]{Kind: lpnet.Terminate})
			sh.paused.Store(false)
			return rounds, gvt
		}
	}
}
