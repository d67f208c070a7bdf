// Package core is the unified front end over every simulation engine in
// this repository: the sequential reference, the oblivious compiled-mode
// simulator, and the synchronous, conservative, optimistic, and hybrid
// parallel engines. One Options struct configures any of them; one Report
// carries values, waveform, work counters, and modeled time, so callers
// (CLIs, examples, and the experiment harness) can compare algorithms —
// which is the whole subject of the paper.
package core

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/dist/wire"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim/adapt"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/cmb"
	"repro/internal/sim/hybrid"
	"repro/internal/sim/oblivious"
	"repro/internal/sim/seq"
	"repro/internal/sim/supervise"
	"repro/internal/sim/sync"
	"repro/internal/sim/timewarp"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// Engine names a simulation algorithm.
type Engine uint8

// The available engines. The conservative and optimistic entries expose
// their principal protocol variants directly so experiment sweeps can
// enumerate them.
const (
	EngineSeq Engine = iota
	EngineOblivious
	EngineSync
	EngineCMB
	EngineCMBDemand
	EngineCMBDetect
	EngineTimeWarp
	EngineTimeWarpLazy
	EngineHybrid

	numEngines
)

var engineNames = [numEngines]string{
	"seq", "oblivious", "sync", "cmb", "cmb-demand", "cmb-detect",
	"timewarp", "timewarp-lazy", "hybrid",
}

// String names the engine.
func (e Engine) String() string {
	if e < numEngines {
		return engineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// ParseEngine converts an engine name.
func ParseEngine(s string) (Engine, error) {
	for e := Engine(0); e < numEngines; e++ {
		if engineNames[e] == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("core: unknown engine %q (have %v)", s, engineNames)
}

// Engines lists every engine, for sweeps.
func Engines() []Engine {
	out := make([]Engine, numEngines)
	for i := range out {
		out[i] = Engine(i)
	}
	return out
}

// Parallel reports whether the engine divides the circuit across LPs.
func (e Engine) Parallel() bool { return e != EngineSeq && e != EngineOblivious }

// Distributes reports whether the engine can run as shards of a socket
// fleet: the null-message and Time Warp protocols are point-to-point, the
// deadlock-recovery ledger and the hybrid clusters are one process's
// memory, and the rest have no LP-to-LP messages to put on a wire.
func (e Engine) Distributes() bool {
	switch e {
	case EngineCMB, EngineCMBDemand, EngineTimeWarp, EngineTimeWarpLazy:
		return true
	}
	return false
}

// Options configures a simulation run for any engine.
type Options struct {
	// Engine selects the algorithm.
	Engine Engine
	// LPs is the logical-process count for parallel engines (also the
	// worker count for the oblivious engine). Defaults to 4.
	LPs int
	// Partition selects the gate-assignment heuristic.
	Partition partition.Method
	// ConeSplit overrides Partition with the cone-split mode: whole
	// combinational cones (bounded at sequential elements and sources)
	// become fat LPs whose kernels evaluate obliviously in one levelized
	// sweep once active, so the parallel engines synchronize only at
	// state-element boundaries. Honored by the cmb, timewarp, and hybrid
	// engines; the sync engine gets the partition but not the sweep.
	ConeSplit bool
	// PartitionSeed feeds randomized partitioners.
	PartitionSeed int64
	// Weights are pre-simulation load estimates for the partitioner.
	Weights partition.Weights
	// System is the logic value system (default 9-valued; 4-valued on a
	// wide run, whose lanes cannot hold the nine-valued levels).
	System logic.System
	// Queue selects the pending-event set implementation.
	Queue eventq.Impl
	// Watch lists nets to record; nil watches primary outputs.
	Watch []circuit.GateID
	// MaxEvents bounds runaway simulations.
	MaxEvents uint64
	// Cost prices modeled times; the zero value uses the default model.
	Cost stats.CostModel

	// Cancellation, StateSaving, and Window configure the optimistic
	// engines.
	Cancellation timewarp.Cancellation
	StateSaving  timewarp.StateSaving
	Window       circuit.Tick
	// IntraWorkers is the per-cluster synchronous worker count of the
	// hybrid engine (default 2).
	IntraWorkers int

	// Metrics, when non-nil, receives the run's work counters instead of
	// the private registry Simulate otherwise creates. Report.Metrics is
	// only populated for *metrics.Registry sinks.
	Metrics metrics.Sink
	// Tracer, when non-nil, records per-LP lifecycle spans (see
	// trace.Tracer.WriteJSON for the Chrome trace_event export).
	Tracer *trace.Tracer
	// PProfLabels tags LP goroutines with runtime/pprof labels
	// (engine/lp/phase) so CPU profiles break down by logical process.
	PProfLabels bool
	// Chaos, when non-nil, wraps the asynchronous engines' per-LP
	// transports in the fault-injecting chaos layer (see
	// internal/simtest/chaos). Only the cmb, timewarp, and hybrid engines
	// honor it; test harness use only.
	Chaos *inject.Hook

	// Supervise, when non-nil, runs the engine under the supervision
	// layer: watchdog, retry/backoff, and graceful degradation to simpler
	// engines. See SuperviseOptions.
	Supervise *SuperviseOptions
	// HistoryLimit bounds the optimistic engines' saved-history memory in
	// words; 0 means unlimited. See timewarp.Config.HistoryLimit.
	HistoryLimit uint64
	// CheckpointEvery, with CheckpointDir, writes a consistent snapshot
	// every multiple of this modeled time. Snapshots are produced by a
	// sequential shadow run — legitimate because every engine reproduces
	// the sequential trajectory exactly, so the sequential state at a
	// boundary IS a consistent cut for any engine.
	CheckpointEvery circuit.Tick
	// CheckpointDir is the directory receiving ckpt-<time>.json files.
	CheckpointDir string
	// Restore, when non-nil, resumes the run from a checkpoint: engine
	// state is seeded from the snapshot and the report's waveform is the
	// checkpoint prefix plus the resumed suffix — bit-identical to an
	// uninterrupted run. The oblivious engine does not support it.
	Restore *ckpt.State

	// Adapt, when non-nil, runs the job under closed-loop adaptive
	// control: an AIMD optimism-window controller inside the optimistic
	// engines, an engine-switch supervisor migrating the run between
	// conservative and optimistic protocols via checkpoint/restart, and
	// a load rebalancer that repartitions on measured per-LP
	// utilization. Requires a parallel engine. Every decision lands in
	// Report.Adapt and the adapt_* gauges; the waveform is bit-identical
	// to a static run because every engine reproduces the sequential
	// trajectory — adaptation changes when things execute, never what
	// is computed. See internal/sim/adapt.
	Adapt *adapt.Spec

	// winCtl carries the live window controller from the adaptive
	// supervisor into per-segment engine runs (internal plumbing).
	winCtl *adapt.WindowController
	// prebuilt carries an already-built partition (and its cone count)
	// from the adaptive supervisor into per-segment engine runs, so
	// short probing segments do not pay the partitioner once per
	// segment. Engines treat the assignment as read-only (the sync
	// engine's dynamic balancer mutates a private copy), so sharing one
	// across segments is safe (internal plumbing).
	prebuilt      *partition.Partition
	prebuiltCones int
	// seam makes the run one shard of a fleet (set by RunShard): the
	// asynchronous engines execute only the LPs it maps to this process.
	seam *wire.Seam
}

// SuperviseOptions configures the supervision layer.
type SuperviseOptions struct {
	// Watchdog, when non-zero, aborts an engine run (with a
	// machine-readable hang report) after this long without global
	// progress. Honored by the asynchronous engines (cmb, timewarp,
	// hybrid); the barrier-stepped engines cannot stall between barriers.
	Watchdog time.Duration
	// Retries is how many times a recoverable failure of the selected
	// engine is retried before degrading; 0 means fail over immediately.
	Retries int
	// Backoff is slept between attempts (doubled each retry).
	Backoff time.Duration
	// Fallback enables graceful degradation: after the retries are
	// exhausted the run falls back to the synchronous engine, then to the
	// sequential reference. All engines produce identical waveforms, so
	// degradation trades performance, never correctness.
	Fallback bool
}

// SupervisionReport records what the supervision layer did.
type SupervisionReport struct {
	// Recoveries counts failed attempts that were retried on the same
	// engine; Fallbacks counts degradations to a simpler engine.
	Recoveries uint64
	Fallbacks  uint64
	// FinalEngine is the engine that produced the result.
	FinalEngine Engine
	// Attempts holds the error of every failed attempt, in order.
	Attempts []string
}

// SimError is the structured simulation error; re-exported so callers can
// classify failures with errors.As without importing the engine internals.
type SimError = supervise.SimError

// Kind classifies a SimError.
type Kind = supervise.Kind

// The error kinds.
const (
	KindInternal   = supervise.KindInternal
	KindCausality  = supervise.KindCausality
	KindHang       = supervise.KindHang
	KindPanic      = supervise.KindPanic
	KindEventLimit = supervise.KindEventLimit
	KindShardLoss  = supervise.KindShardLoss
)

// ReportT is the engine-independent outcome of a run over value type V.
type ReportT[V comparable] struct {
	Engine   Engine
	Values   []V
	Waveform trace.WaveformT[V]
	EndTime  circuit.Tick
	Stats    stats.RunStats
	// Modeled is the run's modeled execution time in model nanoseconds on
	// Processors modeled processors (see package stats for methodology).
	Modeled    float64
	Processors int
	// SeqWork caches the counters needed to compute a sequential baseline
	// time for speedups (populated for EngineSeq runs).
	SeqWork metrics.LPCounters
	// Metrics is the machine-readable run report (counters, histograms,
	// gauges, globals) from the run's metrics registry.
	Metrics *metrics.Report
	// Supervision, when the run was supervised, records recoveries and
	// fallbacks.
	Supervision *SupervisionReport
	// Adapt, when the run was adaptive, records every controller
	// decision and the final operating point.
	Adapt *AdaptReport
}

// Report is the outcome of a scalar run.
type Report = ReportT[logic.Value]

// WideReport is the outcome of a wide (64-lane) run.
type WideReport struct {
	Engine   Engine
	Values   []logic.Word
	Waveform trace.WideWaveform
	EndTime  circuit.Tick
	// Lanes is the meaningful lane count, copied from the stimulus.
	Lanes int
	// Vectors is the total number of stimulus vectors the run consumed:
	// lanes times distinct stimulus boundaries.
	Vectors uint64
	// VectorsPerSec is Vectors divided by the run's wall-clock time — the
	// headline wide-throughput figure.
	VectorsPerSec float64
	Stats         stats.RunStats
	Processors    int
	Metrics       *metrics.Report
	Supervision   *SupervisionReport
}

// SpeedupOver computes this run's modeled speedup over a sequential
// baseline report.
func (r *ReportT[V]) SpeedupOver(baseline *ReportT[V], m stats.CostModel) float64 {
	if m == (stats.CostModel{}) {
		m = stats.DefaultCostModel()
	}
	seqTime := stats.SequentialTime(m,
		baseline.SeqWork.Evaluations,
		baseline.SeqWork.EventsApplied,
		baseline.SeqWork.EventsScheduled)
	return stats.Speedup(seqTime, r.Modeled)
}

// engines is one value plane as core sees it: the plane descriptor, the
// suffix its engine labels carry, and every engine's entry point on it,
// over the plane's stimulus type S. simulateOnce dispatches through it, so
// the engine switch is written once for both planes.
type engines[S any, V comparable] struct {
	plane     *circuit.Plane[V]
	suffix    string
	seq       func(*circuit.Circuit, S, circuit.Tick, seq.Config) (*seq.ResultT[V], error)
	oblivious func(*circuit.Circuit, S, oblivious.Config) (*oblivious.ResultT[V], error)
	sync      func(*circuit.Circuit, S, circuit.Tick, sync.Config) (*sync.ResultT[V], error)
	cmb       func(*circuit.Circuit, S, circuit.Tick, cmb.Config) (*cmb.ResultT[V], error)
	timewarp  func(*circuit.Circuit, S, circuit.Tick, timewarp.Config) (*timewarp.ResultT[V], error)
	hybrid    func(*circuit.Circuit, S, circuit.Tick, hybrid.Config) (*hybrid.ResultT[V], error)
}

var scalarEngines = engines[*vectors.Stimulus, logic.Value]{
	circuit.Scalar, "", seq.Run, oblivious.Run, sync.Run, cmb.Run, timewarp.Run, hybrid.Run,
}

var wideEngines = engines[*vectors.WideStimulus, logic.Word]{
	circuit.Wide, "-wide", seq.RunWide, oblivious.RunWide, sync.RunWide, cmb.RunWide, timewarp.RunWide, hybrid.RunWide,
}

// resolve fills in the option defaults shared by both planes; only the
// default logic system, and which systems are legal, depend on the plane.
func (eng *engines[S, V]) resolve(opts Options) (Options, error) {
	var err error
	if opts.System, err = eng.plane.System(opts.System); err != nil {
		return opts, err
	}
	if opts.LPs <= 0 {
		opts.LPs = 4
	}
	if opts.Cost == (stats.CostModel{}) {
		opts.Cost = stats.DefaultCostModel()
	}
	if opts.IntraWorkers <= 0 {
		opts.IntraWorkers = 2
	}
	return opts, nil
}

// simulateOnce runs the selected engine exactly once. hangTimeout arms the
// asynchronous engines' progress watchdog; zero leaves it off. A panic on
// the calling goroutine (the serial engines run there) is recovered into a
// structured SimError, completing panic isolation for every engine.
func simulateOnce[S any, V comparable](eng *engines[S, V], c *circuit.Circuit, stim S, until circuit.Tick, opts Options, hangTimeout time.Duration) (rep *ReportT[V], err error) {
	label := opts.Engine.String() + eng.suffix
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, supervise.FromPanic(label, -1, "run", 0, r)
		}
	}()
	if opts.Restore != nil && opts.Engine == EngineOblivious {
		return nil, fmt.Errorf("core: the oblivious engine is cycle-based and cannot resume from an event checkpoint")
	}
	sink := opts.Metrics
	if sink == nil {
		reg := metrics.NewRegistry(label)
		if opts.PProfLabels {
			reg.EnablePProf()
		}
		sink = reg
	}

	part, coneCount, err := buildPartition(c, opts)
	if err != nil {
		return nil, err
	}
	sweep := opts.ConeSplit

	rep = &ReportT[V]{Engine: opts.Engine, Processors: opts.LPs}
	start := time.Now()
	switch opts.Engine {
	case EngineSeq:
		res, err := eng.seq(c, stim, until, seq.Config{
			System: opts.System, Queue: opts.Queue, Watch: opts.Watch, MaxEvents: opts.MaxEvents,
			Metrics: sink, Tracer: opts.Tracer, Boot: opts.Restore,
		})
		if err != nil {
			return nil, err
		}
		rep.Values, rep.Waveform, rep.EndTime = res.Values, res.Waveform, res.EndTime
		rep.SeqWork = res.Counters
		rep.Stats.LPs = []metrics.LPCounters{res.Counters}
		rep.Processors = 1
		rep.Modeled = stats.SequentialTime(opts.Cost,
			res.Counters.Evaluations, res.Counters.EventsApplied, res.Counters.EventsScheduled)
	case EngineOblivious:
		res, err := eng.oblivious(c, stim, oblivious.Config{
			System: opts.System, Workers: opts.LPs, Watch: opts.Watch, Cost: opts.Cost,
			Metrics: sink, Tracer: opts.Tracer,
		})
		if err != nil {
			return nil, err
		}
		rep.Values, rep.Waveform = res.Values, res.Waveform
		rep.Stats = res.Stats
		rep.Modeled = res.Stats.ModeledTime(opts.Cost)
	case EngineSync:
		res, err := eng.sync(c, stim, until, sync.Config{
			Partition: part, System: opts.System, Queue: opts.Queue,
			Watch: opts.Watch, Cost: opts.Cost, MaxEvents: opts.MaxEvents,
			Metrics: sink, Tracer: opts.Tracer, Boot: opts.Restore,
		})
		if err != nil {
			return nil, err
		}
		rep.Values, rep.Waveform, rep.EndTime = res.Values, res.Waveform, res.EndTime
		rep.Stats = res.Stats
		rep.Modeled = res.Stats.ModeledTime(opts.Cost)
	case EngineCMB, EngineCMBDemand, EngineCMBDetect:
		mode := cmb.NullEager
		switch opts.Engine {
		case EngineCMBDemand:
			mode = cmb.NullDemand
		case EngineCMBDetect:
			mode = cmb.DeadlockRecovery
		}
		res, err := eng.cmb(c, stim, until, cmb.Config{
			Partition: part, Mode: mode, System: opts.System, Queue: opts.Queue,
			Watch: opts.Watch, MaxEvents: opts.MaxEvents,
			Metrics: sink, Tracer: opts.Tracer, Chaos: opts.Chaos,
			HangTimeout: hangTimeout, Boot: opts.Restore, Sweep: sweep, Dist: opts.seam,
		})
		if err != nil {
			return nil, err
		}
		rep.Values, rep.Waveform, rep.EndTime = res.Values, res.Waveform, res.EndTime
		rep.Stats = res.Stats
		rep.Modeled = res.Stats.ModeledTime(opts.Cost)
	case EngineTimeWarp, EngineTimeWarpLazy:
		cancel := opts.Cancellation
		if opts.Engine == EngineTimeWarpLazy {
			cancel = timewarp.Lazy
		}
		res, err := eng.timewarp(c, stim, until, timewarp.Config{
			Partition: part, Cancellation: cancel, StateSaving: opts.StateSaving,
			Window: opts.Window, System: opts.System, Queue: opts.Queue,
			Watch: opts.Watch, MaxEvents: opts.MaxEvents,
			Metrics: sink, Tracer: opts.Tracer, Chaos: opts.Chaos,
			HangTimeout: hangTimeout, HistoryLimit: opts.HistoryLimit, Boot: opts.Restore,
			Sweep: sweep, Adapt: opts.winCtl, Dist: opts.seam,
		})
		if err != nil {
			return nil, err
		}
		rep.Values, rep.Waveform, rep.EndTime = res.Values, res.Waveform, res.EndTime
		rep.Stats = res.Stats
		rep.Modeled = res.Stats.ModeledTime(opts.Cost)
	case EngineHybrid:
		res, err := eng.hybrid(c, stim, until, hybrid.Config{
			Partition: part, IntraWorkers: opts.IntraWorkers,
			Cancellation: opts.Cancellation, StateSaving: opts.StateSaving,
			Window: opts.Window, System: opts.System, Cost: opts.Cost,
			Watch: opts.Watch, MaxEvents: opts.MaxEvents,
			Metrics: sink, Tracer: opts.Tracer, Chaos: opts.Chaos,
			HangTimeout: hangTimeout, HistoryLimit: opts.HistoryLimit, Boot: opts.Restore,
			Sweep: sweep, Adapt: opts.winCtl,
		})
		if err != nil {
			return nil, err
		}
		rep.Values, rep.Waveform, rep.EndTime = res.Values, res.Waveform, res.EndTime
		rep.Stats = res.Stats
		rep.Modeled = res.ModeledTime()
		rep.Processors = res.TotalProcessors()
	default:
		return nil, fmt.Errorf("core: unknown engine %v", opts.Engine)
	}
	// Wall time has one definition for every engine: the engine call as
	// core sees it. The serial engine keeps no clock of its own, and the
	// parallel engines' own figures start after their set-up.
	rep.Stats.Wall = time.Since(start)
	sink.Globals().WallNs = rep.Stats.Wall.Nanoseconds()
	if reg, ok := sink.(*metrics.Registry); ok {
		reg.SetLabel("engine", label)
		reg.SetLabel("lps", fmt.Sprint(rep.Processors))
		if opts.Engine.Parallel() {
			if opts.ConeSplit {
				reg.SetLabel("partition", partition.MethodConeSplit.String())
			} else {
				reg.SetLabel("partition", opts.Partition.String())
			}
		}
		if coneCount >= 0 {
			reg.SetGauge("cone_count", float64(coneCount))
		}
		rep.Metrics = reg.Report()
	}
	return rep, nil
}

// buildPartition derives the gate→LP assignment an engine run will use
// (nil for the serial engines): the one a prepared run brought, else
// pipeline's construction from the options. Shared between simulateOnce
// and the adaptive rebalancer, which needs the same assignment to
// translate per-LP utilization into per-gate weights.
func buildPartition(c *circuit.Circuit, opts Options) (*partition.Partition, int, error) {
	if !opts.Engine.Parallel() {
		return nil, -1, nil
	}
	if opts.prebuilt != nil {
		return opts.prebuilt, opts.prebuiltCones, nil
	}
	return pipeline.NewPartition(c, opts.LPs, opts.ConeSplit, opts.Partition, partition.Options{
		Weights: opts.Weights,
		Seed:    opts.PartitionSeed,
	})
}

// PreSimulate re-exports pipeline's pre-simulation workload estimation
// for callers that only import core.
func PreSimulate(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, sys logic.System) (partition.Weights, error) {
	return pipeline.PreSimulate(c, stim, until, sys)
}

// Horizon re-exports the settling-margin heuristic for callers that only
// import core.
func Horizon(c *circuit.Circuit, stim *vectors.Stimulus) circuit.Tick {
	return seq.HorizonFrom(c, stim.End)
}

// WideHorizon is Horizon for a wide stimulus.
func WideHorizon(c *circuit.Circuit, stim *vectors.WideStimulus) circuit.Tick {
	return seq.HorizonFrom(c, stim.End)
}
