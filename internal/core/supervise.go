package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/sim/ckpt"
	"repro/internal/vectors"
)

// Simulate runs the selected engine on the circuit and stimulus.
//
// With Options.Supervise set, the run is supervised: the asynchronous
// engines execute under a progress watchdog, recoverable failures (panics,
// hangs, causality violations) are retried with backoff, and — when
// Fallback is enabled — the run degrades to the synchronous engine and
// finally the sequential reference. Because every engine reproduces the
// same trajectory, degradation changes performance only; the waveform is
// identical. With Options.CheckpointEvery/CheckpointDir set, the running
// engine — and every retry or fallback — writes consistent snapshots of
// its own; Options.Restore resumes from one.
func Simulate(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, opts Options) (*Report, error) {
	return simulateOn(&scalarEngines, c, stim, until, opts, nil)
}

// SimulateWide runs the selected engine on all 64 lanes of the wide
// stimulus at once — 64 vectors per gate operation. It is Simulate on the
// wide plane: the same dispatch, partitioner, supervision layer, chaos
// hooks, checkpoints, restore and adaptive control; per lane, the
// committed waveform is bit-identical to a scalar run of that lane's
// stimulus on the same engine. The logic system must be two- or
// four-valued (default four-valued). What it adds is the lane accounting.
func SimulateWide(c *circuit.Circuit, stim *vectors.WideStimulus, until circuit.Tick, opts Options) (*WideReport, error) {
	rep, err := simulateOn(&wideEngines, c, stim, until, opts, nil)
	if err != nil {
		return nil, err
	}
	// The schedule is validated, hence ordered: a boundary is a new time.
	var boundaries uint64
	for i, ch := range stim.Changes {
		if ch.Time <= until && (i == 0 || ch.Time != stim.Changes[i-1].Time) {
			boundaries++
		}
	}
	rep.Lanes, rep.Vectors = stim.Lanes, uint64(stim.Lanes)*boundaries
	if secs := rep.Stats.Wall.Seconds(); secs > 0 {
		rep.VectorsPerSec = float64(rep.Vectors) / secs
	}
	if opts.Metrics != nil {
		opts.Metrics.SetGauge("lanes", float64(rep.Lanes))
		opts.Metrics.SetGauge("vectors_per_sec", rep.VectorsPerSec)
	}
	if m := rep.Metrics; m != nil {
		m.Labels["lanes"] = fmt.Sprint(rep.Lanes)
		m.SetGauge("lanes", float64(rep.Lanes))
		m.SetGauge("vectors_per_sec", rep.VectorsPerSec)
	}
	return rep, nil
}

// job is one run as core drives it on one value plane: the plane's engine
// table, the circuit and stimulus, the snapshot it boots from and, on a
// fleet shard, the worker's sink for the engine's cuts.
type job[S any, V comparable] struct {
	eng  *engines[S, V]
	c    *circuit.Circuit
	stim S
	boot *ckpt.StateT[V]
	cuts *ckpt.Cuts[V]
}

// simulateOn is the one front both planes run through: the option
// defaults, the check of Options.Restore against the run's plane, then the
// adaptive segment loop, or one run (supervised when asked) with the
// snapshot's prefix spliced back on.
func simulateOn[S any, V comparable](eng *engines[S, V], c *circuit.Circuit, stim S, until circuit.Tick, opts Options, cuts *ckpt.Cuts[V]) (*ReportT[V], error) {
	opts, err := eng.resolve(opts)
	if err != nil {
		return nil, err
	}
	boot, err := ckpt.As[V](opts.Restore, opts.System)
	if err != nil {
		return nil, err
	}
	j := &job[S, V]{eng: eng, c: c, stim: stim, boot: boot, cuts: cuts}
	var rep *ReportT[V]
	if opts.Adapt != nil {
		// The adaptive supervisor owns segmentation and (when configured)
		// per-segment supervision.
		rep, err = j.adaptive(until, opts)
	} else {
		rep, err = j.run(until, opts)
	}
	if err != nil {
		return nil, err
	}
	if boot != nil {
		// Engines resumed from a checkpoint report only the suffix; splice
		// the checkpointed prefix back on so the caller sees the waveform
		// of an uninterrupted run.
		rep.Waveform = append(boot.Prefix(), rep.Waveform...)
		rep.EndTime = max(rep.EndTime, circuit.Tick(boot.EndTime))
	}
	return rep, nil
}

// run runs the engine once, or under the supervision layer when
// opts.Supervise is set.
func (j *job[S, V]) run(until circuit.Tick, opts Options) (*ReportT[V], error) {
	if opts.Supervise != nil {
		return j.supervised(until, opts)
	}
	return j.once(until, opts, 0)
}

// recoverable reports whether the supervision layer may retry or degrade
// after err. Structured engine failures are recoverable except the event
// limit, which is a property of the circuit and stimulus — every engine
// would hit it, so retrying only burns time. Unstructured errors are
// configuration or validation problems and are returned as-is.
func recoverable(err error) bool {
	var se *SimError
	if !errors.As(err, &se) {
		return false
	}
	return se.Kind != KindEventLimit
}

// supervised drives the retry/backoff/fallback chain.
func (j *job[S, V]) supervised(until circuit.Tick, opts Options) (*ReportT[V], error) {
	sup := *opts.Supervise
	chain := []Engine{opts.Engine}
	if sup.Fallback {
		if opts.Engine != EngineSync && opts.Engine != EngineSeq && opts.Engine != EngineOblivious {
			chain = append(chain, EngineSync)
		}
		if opts.Engine != EngineSeq && opts.Engine != EngineOblivious {
			chain = append(chain, EngineSeq)
		}
	}
	srep := &SupervisionReport{}
	backoff := sup.Backoff
	var lastErr error
	for ci, engine := range chain {
		tries := 1
		if ci == 0 {
			tries += sup.Retries
		}
		for a := 0; a < tries; a++ {
			if lastErr != nil {
				// Re-arm transient chaos faults between attempts so the
				// harness can model faults that persist (hangs re-arm) or
				// do not (panics stay fired).
				opts.Chaos.Rearm()
				if backoff > 0 {
					time.Sleep(backoff)
					backoff *= 2
				}
			}
			o := opts
			o.Engine = engine
			rep, err := j.once(until, o, sup.Watchdog)
			if err == nil {
				srep.FinalEngine = engine
				rep.Supervision = srep
				if rep.Metrics != nil {
					rep.Metrics.SetGauge("supervise_recoveries", float64(srep.Recoveries))
					rep.Metrics.SetGauge("supervise_fallbacks", float64(srep.Fallbacks))
				}
				return rep, nil
			}
			lastErr = err
			srep.Attempts = append(srep.Attempts, fmt.Sprintf("%s: %v", engine, err))
			if !recoverable(err) {
				return nil, err
			}
			if a+1 < tries {
				srep.Recoveries++
			}
		}
		if ci+1 < len(chain) {
			srep.Fallbacks++
		}
	}
	return nil, lastErr
}
