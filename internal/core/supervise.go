package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/circuit"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/seq"
	"repro/internal/trace"
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
// identical. With Options.CheckpointEvery/CheckpointDir set, consistent
// snapshots are written during the run; Options.Restore resumes from one.
func Simulate(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, opts Options) (*Report, error) {
	opts, err := scalarEngines.resolve(opts)
	if err != nil {
		return nil, err
	}
	if opts.CheckpointEvery > 0 && opts.CheckpointDir != "" {
		if err := writeCheckpoints(c, stim, until, opts); err != nil {
			return nil, err
		}
	}
	if opts.Adapt != nil {
		// The adaptive supervisor owns segmentation, restore splicing,
		// and (when configured) per-segment supervision.
		return simulateAdaptive(c, stim, until, opts)
	}
	rep, err := simulate(&scalarEngines, c, stim, until, opts)
	if err != nil {
		return nil, err
	}
	if opts.Restore != nil {
		// Engines resumed from a checkpoint report only the suffix; splice
		// the checkpointed prefix back on so the caller sees the waveform
		// of an uninterrupted run.
		rep.Waveform = append(opts.Restore.Prefix(), rep.Waveform...)
		if end := circuit.Tick(opts.Restore.EndTime); end > rep.EndTime {
			rep.EndTime = end
		}
	}
	return rep, nil
}

// SimulateWide runs the selected engine on all 64 lanes of the wide
// stimulus at once — 64 vectors per gate operation. Every engine is
// supported, through the same dispatch, partitioner, supervision layer and
// chaos hooks as Simulate; per lane, the committed waveform is
// bit-identical to a scalar run of that lane's stimulus on the same
// engine. The logic system must be two- or four-valued (default
// four-valued).
//
// This is the one place the wide exclusions are checked: the checkpoint
// format stores scalar values, and restore, checkpoint writing and the
// adaptive supervisor's engine switches all go through it.
func SimulateWide(c *circuit.Circuit, stim *vectors.WideStimulus, until circuit.Tick, opts Options) (*WideReport, error) {
	switch {
	case opts.Restore != nil:
		return nil, fmt.Errorf("core: wide runs do not support checkpoint restore (the checkpoint format stores scalar values)")
	case opts.CheckpointEvery > 0:
		return nil, fmt.Errorf("core: wide runs do not support checkpointing (the checkpoint format stores scalar values)")
	case opts.Adapt != nil:
		return nil, fmt.Errorf("core: wide runs do not support adaptive control (the controllers migrate runs through scalar checkpoints)")
	}
	opts, err := wideEngines.resolve(opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := simulate(&wideEngines, c, stim, until, opts)
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
	w := &WideReport{
		Engine: rep.Engine, Values: rep.Values, Waveform: trace.WideWaveform(rep.Waveform),
		EndTime: rep.EndTime, Lanes: stim.Lanes, Vectors: uint64(stim.Lanes) * boundaries,
		Stats: rep.Stats, Processors: rep.Processors, Metrics: rep.Metrics, Supervision: rep.Supervision,
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		w.VectorsPerSec = float64(w.Vectors) / secs
	}
	if opts.Metrics != nil {
		opts.Metrics.SetGauge("lanes", float64(w.Lanes))
		opts.Metrics.SetGauge("vectors_per_sec", w.VectorsPerSec)
	}
	if m := w.Metrics; m != nil {
		m.Labels["lanes"] = fmt.Sprint(w.Lanes)
		m.SetGauge("lanes", float64(w.Lanes))
		m.SetGauge("vectors_per_sec", w.VectorsPerSec)
	}
	return w, nil
}

// simulate runs the engine once, or under the supervision layer when
// opts.Supervise is set.
func simulate[S any, V comparable](eng *engines[S, V], c *circuit.Circuit, stim S, until circuit.Tick, opts Options) (*ReportT[V], error) {
	if opts.Supervise != nil {
		return simulateSupervised(eng, c, stim, until, opts)
	}
	return simulateOnce(eng, c, stim, until, opts, 0)
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

// simulateSupervised drives the retry/backoff/fallback chain.
func simulateSupervised[S any, V comparable](eng *engines[S, V], c *circuit.Circuit, stim S, until circuit.Tick, opts Options) (*ReportT[V], error) {
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
			rep, err := simulateOnce(eng, c, stim, until, o, sup.Watchdog)
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

// writeCheckpoints runs the sequential shadow that produces the run's
// checkpoint stream. The shadow is legitimate as a checkpoint source for
// every engine because all engines reproduce the sequential trajectory
// exactly (the differential harness enforces this), so the sequential
// state at a boundary is a consistent global cut of any engine's run.
func writeCheckpoints(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, opts Options) error {
	if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
		return err
	}
	_, err := seq.Run(c, stim, until, seq.Config{
		System: opts.System, Queue: opts.Queue, Watch: opts.Watch,
		MaxEvents:       opts.MaxEvents,
		Boot:            opts.Restore,
		CheckpointEvery: opts.CheckpointEvery,
		Checkpoint: func(st *ckpt.State) error {
			return ckpt.WriteFile(filepath.Join(opts.CheckpointDir, fmt.Sprintf("ckpt-%08d.json", st.Time)), st)
		},
	})
	if err != nil {
		return fmt.Errorf("core: checkpoint shadow: %w", err)
	}
	return nil
}
