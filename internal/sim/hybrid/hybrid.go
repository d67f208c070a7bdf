// Package hybrid implements the hierarchical synchronization scheme from
// the paper's future-directions section: a synchronous algorithm within a
// cluster of processors and an optimistic asynchronous algorithm across
// clusters — "especially attractive for naturally hierarchical execution
// platforms (e.g. networks of workstations where the individual
// workstations are bus-based multiprocessors)".
//
// The engine composes the two existing mechanisms: the circuit is
// partitioned into clusters that run the Time Warp protocol among
// themselves, and each cluster evaluates its per-timestep gate set across
// the persistent helpers of its own phase.Pool (kernel.StepParallel). The
// modeled execution time therefore combines an intra-cluster critical path
// (max chunk per step plus one barrier per step) with the usual optimistic
// overheads between clusters.
package hybrid

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim/adapt"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/timewarp"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// Config parameterizes a hybrid run.
type Config struct {
	// Partition assigns gates to clusters; required.
	Partition *partition.Partition
	// IntraWorkers is the synchronous worker count inside each cluster
	// (>= 1; 1 degenerates to plain Time Warp).
	IntraWorkers int
	// Cancellation, StateSaving and Window configure the inter-cluster
	// optimistic protocol.
	Cancellation timewarp.Cancellation
	StateSaving  timewarp.StateSaving
	Window       circuit.Tick
	// System is the logic value system.
	System logic.System
	// Cost prices the modeled times.
	Cost stats.CostModel
	// Watch lists nets to record; nil watches primary outputs.
	Watch []circuit.GateID
	// MaxEvents aborts runaway simulations; 0 means no limit.
	MaxEvents uint64
	// Metrics receives the per-cluster counters; nil uses a private
	// registry.
	Metrics metrics.Sink
	// Tracer is forwarded to the inter-cluster optimistic protocol.
	Tracer *trace.Tracer
	// Chaos is forwarded to the inter-cluster optimistic protocol's
	// transport layer. Test harness use only.
	Chaos *inject.Hook
	// HangTimeout, HistoryLimit and Boot are forwarded to the
	// inter-cluster optimistic protocol; see timewarp.Config.
	HangTimeout  time.Duration
	HistoryLimit uint64
	Boot         *ckpt.State
	// Sweep arms the oblivious block sweep inside each cluster; see
	// timewarp.Config.Sweep. The natural companion of a cone-split
	// partition: whole combinational cones evaluate in one levelized pass
	// and clusters synchronize only at sequential boundaries.
	Sweep bool
	// Adapt closes the loop on the inter-cluster optimism window; see
	// timewarp.Config.Adapt.
	Adapt *adapt.WindowController
}

// ResultT is the outcome of a hybrid run over value type V.
type ResultT[V comparable] struct {
	Values []V
	// Waveform converts to trace.Waveform or trace.WideWaveform.
	Waveform []trace.SampleT[V]
	EndTime  circuit.Tick
	Stats    stats.RunStats
	// IntraCritical is each cluster's modeled intra-cluster critical path.
	IntraCritical []float64
	cost          stats.CostModel
	intraWorkers  int
}

// Result is the outcome of a scalar run.
type Result = ResultT[logic.Value]

// WideResult is the outcome of a wide (64-lane) run.
type WideResult = ResultT[logic.Word]

// Run simulates c under the stimulus until the given time (inclusive).
func Run(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, cfg Config) (*Result, error) {
	return run(timewarp.Run, "hybrid", c, stim, until, cfg)
}

// RunWide is the hierarchical engine on 64 packed lanes: clusters
// synchronize optimistically with whole-word Time Warp messages while each
// cluster's sub-workers evaluate the per-timestep dirty set wide. With the
// kernel's oblivious block sweep armed inside each cluster, a saturated
// step processes the cluster's whole combinational block across 64 vectors
// behind one barrier pair.
func RunWide(c *circuit.Circuit, stim *vectors.WideStimulus, until circuit.Tick, cfg Config) (*WideResult, error) {
	return run(timewarp.RunWide, "hybrid-wide", c, stim, until, cfg)
}

// run configures the optimistic engine tw — timewarp.Run or
// timewarp.RunWide, over their stimulus type S — for hierarchical
// execution; engine names the default metrics registry.
func run[S any, V comparable](tw func(*circuit.Circuit, S, circuit.Tick, timewarp.Config) (*timewarp.ResultT[V], error),
	engine string, c *circuit.Circuit, stim S, until circuit.Tick, cfg Config) (*ResultT[V], error) {
	if cfg.Partition == nil {
		return nil, fmt.Errorf("hybrid: Config.Partition is required")
	}
	if cfg.IntraWorkers < 1 {
		cfg.IntraWorkers = 1
	}
	if cfg.Cost == (stats.CostModel{}) {
		cfg.Cost = stats.DefaultCostModel()
	}
	sink := cfg.Metrics
	if sink == nil {
		sink = metrics.NewRegistry(engine)
	}
	res, err := tw(c, stim, until, timewarp.Config{
		Partition:    cfg.Partition,
		Cancellation: cfg.Cancellation,
		StateSaving:  cfg.StateSaving,
		Window:       cfg.Window,
		IntraWorkers: cfg.IntraWorkers,
		Cost:         cfg.Cost,
		System:       cfg.System,
		Watch:        cfg.Watch,
		MaxEvents:    cfg.MaxEvents,
		Metrics:      sink,
		Tracer:       cfg.Tracer,
		Chaos:        cfg.Chaos,
		HangTimeout:  cfg.HangTimeout,
		HistoryLimit: cfg.HistoryLimit,
		Boot:         cfg.Boot,
		Sweep:        cfg.Sweep,
		Adapt:        cfg.Adapt,
	})
	if err != nil {
		return nil, err
	}
	return &ResultT[V]{
		Values:        res.Values,
		Waveform:      res.Waveform,
		EndTime:       res.EndTime,
		Stats:         res.Stats,
		IntraCritical: res.IntraCritical,
		cost:          cfg.Cost,
		intraWorkers:  cfg.IntraWorkers,
	}, nil
}

// TotalProcessors reports the modeled machine size: clusters times
// intra-cluster workers.
func (r *ResultT[V]) TotalProcessors() int {
	return len(r.Stats.LPs) * r.intraWorkers
}

// ModeledTime prices the run: per cluster, the serial evaluation cost is
// replaced by the intra-cluster critical path, or kept as EvalCost ×
// Evaluations when the cluster has none (one worker per cluster is plain
// Time Warp); the slowest cluster plus the inter-cluster GVT overhead
// bounds the run.
func (r *ResultT[V]) ModeledTime() float64 {
	m := r.cost
	var worst float64
	for i, lp := range r.Stats.LPs {
		t := m.Busy(lp)
		if i < len(r.IntraCritical) {
			t = t - m.EvalCost*float64(lp.Evaluations) + r.IntraCritical[i]
		}
		if t > worst {
			worst = t
		}
	}
	return worst + float64(r.Stats.GVTRounds)*m.GVT(len(r.Stats.LPs))
}
