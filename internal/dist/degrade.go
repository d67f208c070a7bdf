package dist

import (
	"time"

	"repro/internal/core"
)

// fallback is the bottom of the degradation ladder: the distributed
// run's restart budget is exhausted, so the prepared workload — the very
// object the workers were sent — is run in this process under the
// supervision layer, starting at the synchronous engine and degrading
// further to the sequential reference if even that fails. Like a restart
// it boots from the newest boundary every shard left, and only without one
// from the caller's restore point or t=0. Every engine reproduces the
// sequential trajectory, so the degraded result's waveform is
// bit-identical to what the fleet would have produced — the ladder trades
// performance, never correctness.
func (h *hub) fallback(loss *core.SimError) (*Result, error) {
	o := &h.opts
	boot, err := h.boot(o.Restarts + 1)
	if err != nil {
		return nil, err
	}
	rep, err := core.Run(h.run, core.Options{
		Engine:    core.EngineSync,
		System:    o.System,
		Queue:     o.Queue,
		MaxEvents: o.MaxEvents,
		Metrics:   o.Metrics,
		Restore:   boot,
		Supervise: &core.SuperviseOptions{
			Watchdog: o.HangTimeout,
			Retries:  1,
			Backoff:  10 * time.Millisecond,
			Fallback: true,
		},
	})
	if err != nil {
		return nil, err
	}
	finalMode := core.EngineSync.String()
	fallbacks := 1 // dist -> sync
	if rep.Supervision != nil {
		finalMode = rep.Supervision.FinalEngine.String()
		fallbacks += int(rep.Supervision.Fallbacks)
	}
	h.gauge("dist_fallbacks", float64(fallbacks))
	return &Result{
		Values:     rep.Values,
		Waveform:   rep.Waveform,
		EndTime:    rep.EndTime,
		Events:     appliedEvents(rep.Stats.LPs),
		Shards:     h.opts.Shards,
		Prepared:   h.run,
		Attempts:   h.opts.Restarts + 1,
		Recoveries: h.opts.Restarts,
		Fallbacks:  fallbacks,
		FinalMode:  finalMode,
		Degraded:   loss.Error(),
	}, nil
}
