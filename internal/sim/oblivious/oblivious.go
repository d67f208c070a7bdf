// Package oblivious implements the compiled-mode, levelized simulator the
// paper contrasts with event-driven techniques.
//
// The oblivious algorithm is not event driven at all: at every stimulus
// boundary every gate is evaluated, whether or not its inputs changed,
// which "completely eliminates the need for an event queue". Correctness
// comes from schedule order alone — gates are evaluated level by level, so
// each sees settled inputs ("components are evaluated after their input
// values are known").
//
// The engine evaluates sequential elements first (flip-flops sample the
// previous boundary's settled data, exactly what an event-driven run with
// delays shorter than the clock half-period produces), then sweeps the
// combinational levels in order. The parallel variant splits every level
// across workers with a barrier per level, which is how SIMD and compiled
// oblivious simulators of the period extracted parallelism.
//
// Timing semantics are cycle-based (zero-delay): the engine reports
// settled values per stimulus boundary, not transient waveforms. The
// activity-crossover experiment (E3) uses the evaluation counters of this
// engine and the event-driven reference to reproduce the paper's claim
// that oblivious wins at high activity and loses badly at low activity.
package oblivious

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/sim/phase"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// Config parameterizes an oblivious run on either value plane.
type Config struct {
	// System is the logic value system; zero selects the plane's default.
	System logic.System
	// Workers is the number of parallel evaluators per level; 0 or 1 runs
	// serially.
	Workers int
	// Cost prices per-level work for the modeled critical path.
	Cost stats.CostModel
	// Metrics receives per-worker counters and barrier globals; nil uses a
	// private registry.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records one evaluate span per worker per level.
	Tracer *trace.Tracer
}

// ResultT is the outcome of an oblivious run over value type V.
type ResultT[V comparable] struct {
	// Values holds the settled value of every net after the last boundary.
	Values []V
	// Waveform holds the settled values of the primary outputs sampled at
	// each stimulus boundary where they changed (a word: in any lane). It
	// converts to trace.Waveform or trace.WideWaveform.
	Waveform []trace.SampleT[V]
	// Cycles is the number of boundaries evaluated.
	Cycles int
	Stats  stats.RunStats
}

// Result is the outcome of a scalar run.
type Result = ResultT[logic.Value]

// WideResult is the outcome of a wide (64-lane) run.
type WideResult = ResultT[logic.Word]

// Run evaluates the circuit at every stimulus boundary.
func Run(c *circuit.Circuit, stim *vectors.Stimulus, cfg Config) (*Result, error) {
	return run(circuit.Scalar, "oblivious", c, stim, cfg)
}

// RunWide is the levelized compiled-mode sweep over 64 packed lanes: at
// every stimulus boundary every gate is evaluated once on all 64 vectors,
// so each lane settles to exactly the scalar oblivious result for that
// lane's stimulus. This is the purest form of the wide win: the
// per-boundary evaluation count is unchanged while the vector throughput
// is multiplied by the lane count.
func RunWide(c *circuit.Circuit, stim *vectors.WideStimulus, cfg Config) (*WideResult, error) {
	return run(circuit.Wide, "oblivious-wide", c, stim, cfg)
}

// run is the oblivious engine over value type V; engine labels the
// metrics registry and errors.
func run[V comparable](pl *circuit.Plane[V], engine string, c *circuit.Circuit, stim vectors.Source[V], cfg Config) (*ResultT[V], error) {
	changes, err := vectors.Schedule(pl, c, stim, &cfg.System)
	if err != nil {
		return nil, err
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Cost == (stats.CostModel{}) {
		cfg.Cost = stats.DefaultCostModel()
	}
	sink := cfg.Metrics
	if sink == nil {
		sink = metrics.NewRegistry(engine)
	}
	if slices.Contains(c.Kinds, circuit.DLatch) {
		return nil, fmt.Errorf("oblivious: transparent latches are not supported by cycle-based evaluation")
	}
	start := time.Now()

	val, prevClk := pl.InitState(c, cfg.System)
	watched := c.Outputs

	// Split levels: sequential gates form the dedicated final level of the
	// circuit's levelization and are evaluated before the combinational
	// sweep of each boundary.
	var seqGates []circuit.GateID
	combLevels := c.Levels
	if slices.Contains(c.Kinds, circuit.DFF) {
		seqGates = c.Levels[len(c.Levels)-1]
		combLevels = c.Levels[:len(c.Levels)-1]
	}

	res := &ResultT[V]{}
	blocks := make([]*metrics.LPBlock, cfg.Workers)
	shards := make([]*trace.Shard, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		blocks[w] = sink.LP(w)
		shards[w] = cfg.Tracer.Shard(fmt.Sprintf("worker %d", w))
	}
	globals := sink.Globals()
	// lastRec dedupes the boundary samples into genuine changes (per-lane
	// deduplication of a word happens in WideWaveform.Lane).
	var rec trace.RecorderT[V]
	lastRec := make([]V, len(c.Kinds))
	for id := range lastRec {
		lastRec[id] = pl.Initial(c.Kinds[id], cfg.System)
	}

	// Group stimulus changes by boundary time.
	type boundary struct {
		t       circuit.Tick
		changes []vectors.ChangeT[V]
	}
	var bounds []boundary
	for _, ch := range changes {
		if len(bounds) == 0 || bounds[len(bounds)-1].t != ch.Time {
			bounds = append(bounds, boundary{t: ch.Time})
		}
		bounds[len(bounds)-1].changes = append(bounds[len(bounds)-1].changes, ch)
	}

	// evalSlice evaluates one contiguous chunk of a level into newVals.
	newQ := make([]V, len(c.Kinds))
	newClk := make([]V, len(c.Kinds))
	evalSlice := func(w int, t circuit.Tick, gates []circuit.GateID) {
		begin := shards[w].Now()
		for _, g := range gates {
			newQ[g], newClk[g] = pl.EvalGate(c, g, val, val, prevClk)
			blocks[w].Evaluations++
		}
		shards[w].Span(trace.PhaseEvaluate, begin, t)
	}

	// The parallel sweep splits each level into chunk-sized parts, one per
	// helper; runLevel sets cur, curT and chunk before each barrier.
	var cur []circuit.GateID
	var curT circuit.Tick
	var chunk int
	var pool *phase.Pool
	if cfg.Workers > 1 {
		pool = phase.New(cfg.Workers, engine, sink, func(w, _ int) {
			lo := w * chunk
			evalSlice(w, curT, cur[lo:min(lo+chunk, len(cur))])
		})
		defer pool.Close()
	}

	// runLevel evaluates a level (in parallel when configured) and commits.
	runLevel := func(t circuit.Tick, gates []circuit.GateID) error {
		chunk = (len(gates) + cfg.Workers - 1) / cfg.Workers
		if cfg.Workers == 1 || len(gates) < 2*cfg.Workers {
			evalSlice(0, t, gates)
		} else {
			cur, curT = gates, t
			if err := pool.Run(t, "eval", (len(gates)+chunk-1)/chunk); err != nil {
				return err
			}
		}
		globals.Barriers++
		// Commit. Per-level worst-case chunk cost models the critical path.
		globals.ModeledCriticalNs += float64(chunk) * cfg.Cost.EvalCost
		for _, g := range gates {
			val[g] = newQ[g]
			prevClk[g] = newClk[g]
		}
		return nil
	}

	for _, b := range bounds {
		res.Cycles++
		blocks[0].Steps++
		for _, ch := range b.changes {
			val[ch.Input] = ch.Value
		}
		// Sequential elements sample the previous boundary's settled data
		// before the combinational sweep recomputes it.
		if len(seqGates) > 0 {
			if err := runLevel(b.t, seqGates); err != nil {
				return nil, err
			}
		}
		for _, level := range combLevels {
			if err := runLevel(b.t, level); err != nil {
				return nil, err
			}
		}
		for _, g := range watched {
			if val[g] != lastRec[g] {
				lastRec[g] = val[g]
				rec.Record(b.t, g, val[g])
			}
		}
	}

	res.Values = val
	res.Waveform = trace.Merge(&rec)
	res.Stats = stats.Collect(sink, time.Since(start))
	return res, nil
}
