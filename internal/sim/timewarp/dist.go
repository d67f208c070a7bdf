package timewarp

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/dist/wire"
	"repro/internal/logic"
	"repro/internal/sim/supervise"
)

// checkDist validates a distributed configuration. The Time Warp
// protocol itself distributes — values and anti-messages are
// point-to-point and GVT becomes the seam's hub-driven conversation —
// but the single-coordinator control loops that need a frozen global
// view do not: the memory throttle and the adaptive window controller
// both sample every LP's state during the pause, and hybrid clusters
// barrier inside one process.
func checkDist(cfg Config) error {
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

// wireEncScalar projects a scalar Time Warp message onto the wire
// format; ID carries the message identity anti-message annihilation
// keys on.
func wireEncScalar(m msg[logic.Value]) wire.Msg {
	return wire.Msg{
		Kind:  uint8(m.kind),
		From:  int32(m.from),
		ID:    m.id,
		Time:  uint64(m.time),
		Gate:  int32(m.gate),
		Value: uint8(m.value),
	}
}

// wireDecScalar is the inverse projection.
func wireDecScalar(w wire.Msg) msg[logic.Value] {
	return msg[logic.Value]{
		kind:  msgKind(w.Kind),
		from:  int(w.From),
		id:    w.ID,
		time:  circuit.Tick(w.Time),
		gate:  circuit.GateID(w.Gate),
		value: logic.Value(w.Value),
	}
}

// distCoordinate is the worker half of distributed GVT. The hub owns
// pacing and conclusion — it repeats rounds until every shard reports
// quiet with matching, stable wire counts (Mattern-style message
// counting) — while this loop answers each round exactly like the
// single-process coordinator's inner collection: freeze processing,
// poll the local LPs through their inboxes, and fold their replies into
// one report. A concluded GVT is applied by the same msgGVTDone /
// msgTerminate broadcast the local protocol uses, so the LPs cannot
// tell the difference.
func distCoordinate[V comparable](sh *shared[V], localLPs []int) (uint64, circuit.Tick) {
	dist := sh.cfg.Dist
	var rounds uint64
	gvt := circuit.Tick(0)
	for {
		cmd, err := dist.GVTNext()
		if err != nil {
			// Link death or engine abort; fail is idempotent and the
			// transport OnDown hook usually got there first.
			sh.fail(&supervise.SimError{
				Engine: sh.engine, LP: -1, Phase: "gvt",
				Kind: supervise.KindInternal, Cause: err,
			})
			return rounds, gvt
		}
		switch cmd.Kind {
		case wire.CmdRound:
			sh.paused.Store(true)
			for _, i := range localLPs {
				sh.inboxes[i].Put(msg[V]{kind: msgGVTRound})
			}
			var handled uint64
			localMin := infTick
			for k := 0; k < len(localLPs); {
				select {
				case r := <-sh.replies:
					handled += r.handled
					if r.localMin < localMin {
						localMin = r.localMin
					}
					k++
				case <-time.After(5 * time.Millisecond):
					if sh.abort.Load() {
						sh.paused.Store(false)
						return rounds, gvt
					}
				}
			}
			if sh.abort.Load() {
				sh.paused.Store(false)
				return rounds, gvt
			}
			rounds++
			quiet := handled == 0 && sh.transit.Load() == 0
			dist.GVTReport(cmd.Round, quiet, uint64(localMin))
		case wire.CmdDone:
			gvt = circuit.Tick(cmd.GVT)
			sh.paused.Store(false)
			for _, i := range localLPs {
				sh.inboxes[i].Put(msg[V]{kind: msgGVTDone, time: gvt})
			}
		case wire.CmdTerminate:
			gvt = circuit.Tick(cmd.GVT)
			for _, i := range localLPs {
				sh.inboxes[i].Put(msg[V]{kind: msgTerminate})
			}
			sh.paused.Store(false)
			return rounds, gvt
		}
	}
}
