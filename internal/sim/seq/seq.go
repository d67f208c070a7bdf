// Package seq implements the sequential event-driven reference simulator.
//
// This is the classic single-queue gate-level simulator the paper takes as
// the baseline that parallel techniques accelerate. It also defines the
// semantics of the whole repository: every parallel engine is required to
// produce exactly the waveform this engine produces, and the cross-engine
// equivalence tests enforce that.
//
// Timestep semantics are two-phase: all net-value changes for the current
// time are applied first, then every gate whose fanin changed is evaluated
// exactly once against the settled values, and its output (if different
// from the last value projected for the net) is scheduled one gate-delay
// into the future. Because gate delays are >= 1 and evaluation is a pure
// function, the result is independent of the order in which same-time
// events are drawn from the queue — which is precisely what makes the
// partitioned, parallel executions of the other engines comparable.
//
// The engine doubles as the paper's "pre-simulation" workload estimator:
// with Profile enabled it counts evaluations per gate, and the partition
// package uses those counts as load weights.
package seq

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/supervise"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// Config parameterizes a sequential run on either value plane.
type Config struct {
	// System is the logic value system used to initialize state; zero
	// selects the plane's default (nine-valued scalar, four-valued wide).
	System logic.System
	// Queue selects the pending-event set implementation.
	Queue eventq.Impl
	// Watch lists the nets to record in the waveform; nil watches the
	// primary outputs.
	Watch []circuit.GateID
	// Profile enables per-gate evaluation counting (pre-simulation).
	Profile bool
	// CriticalPath enables critical-path analysis: alongside the normal
	// run, every event's completion time is computed on a hypothetical
	// machine with unlimited processors and zero communication cost, where
	// an evaluation may start as soon as the latest change of any net it
	// reads has completed. The resulting makespan is the data-dependency
	// lower bound on parallel execution time — the "ideal parallelism" of
	// the workload that no synchronization algorithm can beat.
	CriticalPath bool
	// Cost prices critical-path work; the zero value uses the default
	// model.
	Cost stats.CostModel
	// MaxEvents aborts runaway simulations (oscillators); 0 means no limit.
	MaxEvents uint64
	// Metrics receives the run's work counters; nil uses a private
	// registry (the counters still come back in Result.Counters).
	Metrics metrics.Sink
	// Tracer, when non-nil, records one evaluate span per timestep.
	Tracer *trace.Tracer

	// CheckpointEvery, with Checkpoint set, captures a consistent
	// snapshot at every multiple of this modeled-time interval: the
	// snapshot at boundary B is taken once the next pending event is
	// strictly later than B, so state reflects every event <= B and the
	// pending set is strictly later. Sequential execution is this
	// repository's definition of the trajectory (every engine must match
	// its waveform), which is what makes these snapshots consistent cuts
	// for any engine to restore.
	CheckpointEvery circuit.Tick
	// Checkpoint receives each captured snapshot; a non-nil error aborts
	// the run. Snapshots hold scalar values: RunWide neither captures nor
	// boots (core rejects those options on a wide run).
	Checkpoint func(*ckpt.State) error
	// Boot, when non-nil, resumes from a snapshot instead of the
	// stimulus: value planes are seeded, pending events requeued, and the
	// time-0 settling pass skipped. Result.Waveform then holds only the
	// samples recorded after the boundary (callers prepend Boot's
	// prefix).
	Boot *ckpt.State
}

// WideConfig is Config: a wide run takes the same parameters.
type WideConfig = Config

// ResultT is the outcome of a run over value type V.
type ResultT[V comparable] struct {
	// Values holds the final value of every net.
	Values []V
	// Waveform is the committed change history of the watched nets; it
	// converts to trace.Waveform or trace.WideWaveform. Lane k of a wide
	// waveform equals the scalar waveform of lane k's stimulus.
	Waveform []trace.SampleT[V]
	// EndTime is the last simulated time processed.
	EndTime circuit.Tick
	// CriticalPath is the data-dependency makespan in model nanoseconds
	// (0 unless Config.CriticalPath was set).
	CriticalPath float64
	// Counters is the run's work tally. Steps counts distinct simulated
	// times processed; EventsApplied counts committed net changes only
	// (same-value deliveries are filtered before counting).
	Counters metrics.LPCounters
	// EvalsByGate holds per-gate evaluation counts when profiling.
	EvalsByGate []uint64
}

// Result is the outcome of a scalar run.
type Result = ResultT[logic.Value]

// WideResult is the outcome of a wide (64-lane) run.
type WideResult = ResultT[logic.Word]

// event is a scheduled net value change.
type event[V comparable] struct {
	gate  circuit.GateID
	value V
}

// Run simulates c under the stimulus until the given time (inclusive).
// Events scheduled beyond the horizon are discarded unprocessed.
func Run(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, cfg Config) (*Result, error) {
	var err error
	if cfg.System, err = circuit.Scalar.System(cfg.System); err != nil {
		return nil, err
	}
	changes, err := stim.Projected(c, cfg.System)
	if err != nil {
		return nil, err
	}
	boot, err := cfg.Boot.Seed(c, cfg.System)
	if err != nil {
		return nil, err
	}
	// capture wraps a seed taken at boundary b into the on-disk format,
	// carrying the boot snapshot's waveform prefix forward.
	var fp string
	capture := func(b, endTime circuit.Tick, seed *ckpt.Seed[logic.Value], wave []trace.Sample) error {
		if fp == "" {
			fp = ckpt.Fingerprint(c)
		}
		st := &ckpt.State{
			Version: ckpt.Version, Fingerprint: fp,
			Time: uint64(b), Until: uint64(until), System: uint8(cfg.System),
			EndTime: uint64(endTime),
			Vals:    seed.Vals, PrevClk: seed.PrevClk, Projected: seed.Projected,
			Events:   seed.Events,
			Waveform: ckpt.FromWaveform(wave),
		}
		if cfg.Boot != nil {
			st.Waveform = append(append([]ckpt.Sample(nil), cfg.Boot.Waveform...), st.Waveform...)
			if cfg.Boot.EndTime > st.EndTime {
				st.EndTime = cfg.Boot.EndTime
			}
		}
		return cfg.Checkpoint(st)
	}
	// nextCk is the first boundary to snapshot; 0 disables capture.
	var nextCk circuit.Tick
	if cfg.CheckpointEvery > 0 && cfg.Checkpoint != nil {
		nextCk = cfg.CheckpointEvery
		if cfg.Boot != nil {
			nextCk = (circuit.Tick(cfg.Boot.Time)/cfg.CheckpointEvery + 1) * cfg.CheckpointEvery
		}
	}
	return run(circuit.Scalar, "seq", c, changes, until, cfg, boot, nextCk, capture)
}

// RunWide simulates all 64 lanes of the wide stimulus in one pass,
// evaluating 64 vectors per gate operation. It is the Run loop with words
// for values: an event fires when the word differs from the net's current
// word in any lane. Because the fired evaluation times are a superset of
// every lane's scalar evaluation times and gate evaluation is idempotent
// under unchanged inputs, each lane of the resulting waveform is exactly
// the scalar reference waveform for that lane's stimulus.
func RunWide(c *circuit.Circuit, stim *vectors.WideStimulus, until circuit.Tick, cfg WideConfig) (*WideResult, error) {
	var err error
	if cfg.System, err = circuit.Wide.System(cfg.System); err != nil {
		return nil, err
	}
	if err := stim.Validate(c); err != nil {
		return nil, err
	}
	return run(circuit.Wide, "seq-wide", c, stim.Changes, until, cfg, nil, 0, nil)
}

// run is the sequential engine over value type V. changes is a validated
// schedule already in the run's value domain and engine labels the
// metrics registry and errors. boot, when non-nil, replaces the stimulus
// and the time-zero settling pass; nextCk, when non-zero, is the first
// checkpoint boundary, after which capture receives a seed every
// cfg.CheckpointEvery.
func run[V comparable](pl *circuit.Plane[V], engine string, c *circuit.Circuit, changes []vectors.ChangeT[V],
	until circuit.Tick, cfg Config, boot *ckpt.Seed[V], nextCk circuit.Tick,
	capture func(b, endTime circuit.Tick, seed *ckpt.Seed[V], wave []trace.SampleT[V]) error) (*ResultT[V], error) {
	if err := c.CheckEventDriven(); err != nil {
		return nil, err
	}
	if cfg.Cost == (stats.CostModel{}) {
		cfg.Cost = stats.DefaultCostModel()
	}
	sink := cfg.Metrics
	if sink == nil {
		sink = metrics.NewRegistry(engine)
	}
	blk := sink.LP(0)
	shard := cfg.Tracer.Shard("lp 0")

	val, prevClk := pl.InitState(c, cfg.System)
	projected := make([]V, len(val))
	copy(projected, val)

	watched := cfg.Watch
	if watched == nil {
		watched = c.Outputs
	}
	isWatched := make([]bool, len(c.Gates))
	for _, g := range watched {
		isWatched[g] = true
	}

	q := eventq.New[event[V]](cfg.Queue)
	if boot != nil {
		copy(val, boot.Vals)
		copy(prevClk, boot.PrevClk)
		copy(projected, boot.Projected)
		for _, ev := range boot.Events {
			q.Push(ev.Time, event[V]{gate: ev.Gate, value: ev.Value})
		}
	} else {
		for _, ch := range changes {
			if ch.Time > until {
				continue
			}
			q.Push(uint64(ch.Time), event[V]{gate: ch.Input, value: ch.Value})
			projected[ch.Input] = ch.Value
		}
	}

	res := &ResultT[V]{}
	if cfg.Profile {
		res.EvalsByGate = make([]uint64, len(c.Gates))
	}
	var rec trace.RecorderT[V]
	// Critical-path state: lastCompl[g] is the ideal-machine completion
	// time of net g's most recent change, and pendCompl[g] queues the
	// completion times of g's scheduled events. A gate's events are due one
	// gate delay after strictly increasing evaluation times, so they apply
	// in the order they were scheduled; keeping the times beside the queue
	// costs the runs that do not ask for the analysis nothing per event.
	var lastCompl []float64
	var pendCompl [][]float64
	if cfg.CriticalPath {
		lastCompl = make([]float64, len(c.Gates))
		pendCompl = make([][]float64, len(c.Gates))
	}
	// evalStep is the ideal cost of one apply-evaluate-schedule unit.
	evalStep := cfg.Cost.EvalCost + 2*cfg.Cost.EventCost

	// dirty tracking: stamp[g] == epoch marks g already queued this step.
	stamp := make([]uint64, len(c.Gates))
	var epoch uint64
	var dirty []circuit.GateID
	var endTime circuit.Tick
	var totalEvents uint64

	// step processes one timestep: apply all queued changes at time t, then
	// evaluate each affected gate once. When initial is set every non-source
	// gate is evaluated regardless of input changes — the time-zero settling
	// pass that establishes correct steady state from the initial values.
	step := func(t circuit.Tick, initial bool) error {
		epoch++
		blk.Steps++
		endTime = t
		dirty = dirty[:0]
		begin := shard.Now()
		applied := uint64(0)

		// Phase 1: apply all value changes for time t.
		for {
			pt, ok := q.PeekTime()
			if !ok || circuit.Tick(pt) != t {
				break
			}
			_, ev, _ := q.PopMin()
			totalEvents++
			if cfg.MaxEvents > 0 && totalEvents > cfg.MaxEvents {
				return &supervise.SimError{
					Engine: engine, LP: 0, Phase: "evaluate", ModeledTime: t,
					Kind:  supervise.KindEventLimit,
					Cause: fmt.Errorf("event limit %d exceeded at time %d (oscillation?)", cfg.MaxEvents, t),
				}
			}
			var compl float64 // stimulus and boot events complete at zero
			if lastCompl != nil && len(pendCompl[ev.gate]) > 0 {
				compl, pendCompl[ev.gate] = pendCompl[ev.gate][0], pendCompl[ev.gate][1:]
			}
			if val[ev.gate] == ev.value {
				continue
			}
			val[ev.gate] = ev.value
			if lastCompl != nil {
				lastCompl[ev.gate] = compl
			}
			blk.EventsApplied++
			applied++
			if isWatched[ev.gate] {
				rec.Record(t, ev.gate, ev.value)
			}
			for _, out := range c.FanoutAdj.Row(ev.gate) {
				if stamp[out] != epoch {
					stamp[out] = epoch
					dirty = append(dirty, out)
				}
			}
		}
		if initial {
			dirty = dirty[:0]
			for id, k := range c.Kinds {
				if !k.Source() {
					dirty = append(dirty, circuit.GateID(id))
				}
			}
		}

		// Phase 2: evaluate affected gates against the settled values.
		for _, g := range dirty {
			out, clkSample := pl.EvalGate(c, g, val, prevClk)
			prevClk[g] = clkSample
			blk.Evaluations++
			if cfg.Profile {
				res.EvalsByGate[g]++
			}
			var compl float64
			if lastCompl != nil {
				// The evaluation may start once every net it reads (and its
				// own output, whose previous value it extends) is final.
				dep := lastCompl[g]
				for _, f := range c.FaninAdj.Row(g) {
					if lastCompl[f] > dep {
						dep = lastCompl[f]
					}
				}
				compl = dep + evalStep
				if compl > res.CriticalPath {
					res.CriticalPath = compl
				}
			}
			if out == projected[g] {
				continue
			}
			projected[g] = out
			q.Push(uint64(t+c.Delays[g]), event[V]{gate: g, value: out})
			if lastCompl != nil {
				pendCompl[g] = append(pendCompl[g], compl)
			}
			blk.EventsScheduled++
		}
		blk.Hist(metrics.HistStepEvents).Observe(applied)
		shard.Span(trace.PhaseEvaluate, begin, t)
		return nil
	}

	// snapshot captures boundary b — taken the moment the next pending
	// event is strictly later — by copying the planes and draining and
	// requeuing the pending set; ResetFloor lets the ascending repush
	// start below the drain's last pop.
	snapshot := func(b circuit.Tick) error {
		seed := &ckpt.Seed[V]{
			Vals:      append([]V(nil), val...),
			PrevClk:   append([]V(nil), prevClk...),
			Projected: append([]V(nil), projected...),
			Events:    make([]ckpt.EventT[V], 0, q.Len()),
		}
		var pending []event[V]
		for {
			t64, ev, ok := q.PopMin()
			if !ok {
				break
			}
			seed.Events = append(seed.Events, ckpt.EventT[V]{Time: t64, Gate: ev.gate, Value: ev.value})
			pending = append(pending, ev)
		}
		q.ResetFloor()
		for i, ev := range pending {
			q.Push(seed.Events[i].Time, ev)
		}
		return capture(b, endTime, seed, trace.Merge(&rec))
	}

	var runErr error
	metrics.Do(sink, engine, 0, "run", func() {
		if boot == nil {
			if runErr = step(0, true); runErr != nil {
				return
			}
		}
		for q.Len() > 0 {
			t64, _ := q.PeekTime()
			t := circuit.Tick(t64)
			if t > until {
				break
			}
			for nextCk > 0 && t > nextCk && nextCk <= until {
				if runErr = snapshot(nextCk); runErr != nil {
					return
				}
				nextCk += cfg.CheckpointEvery
			}
			if runErr = step(t, false); runErr != nil {
				return
			}
			if err := q.Err(); err != nil {
				runErr = &supervise.SimError{
					Engine: engine, LP: 0, Phase: "eventq", ModeledTime: t,
					Kind: supervise.KindCausality, Cause: err,
				}
				return
			}
		}
	})
	if runErr != nil {
		return nil, runErr
	}

	res.Values = val
	res.Waveform = trace.Merge(&rec)
	res.EndTime = endTime
	res.Counters = blk.LPCounters
	return res, nil
}

// Horizon suggests a simulation end time for a stimulus; see HorizonFrom.
func Horizon(c *circuit.Circuit, stim *vectors.Stimulus) circuit.Tick {
	return HorizonFrom(c, stim.End)
}

// HorizonFrom suggests a simulation end time for a stimulus of either
// plane that ends at stimEnd: the stimulus end plus a settling margin of
// the circuit's combinational depth times its maximum gate delay (enough
// for the last vector to propagate to the outputs through any path, plus
// slack for sequential feedback).
func HorizonFrom(c *circuit.Circuit, stimEnd circuit.Tick) circuit.Tick {
	depth := circuit.Tick(1)
	if levels, err := c.Levelize(); err == nil {
		depth = circuit.Tick(len(levels) + 2)
	}
	max := c.MaxDelay()
	if max == 0 {
		max = 1
	}
	return stimEnd + 4*depth*max
}
