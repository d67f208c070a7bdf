// Command parsim runs any of the simulation engines on a circuit.
//
// Circuits come from an ISCAS-style .bench file (-bench), from the
// embedded examples (-circuit c17|s27), or from a generator
// (-circuit mul16, ripple32, lfsr16, counter12, dag5000, seq2000, ...).
// Stimulus is random vectors (-vectors, -activity, -period) or a clocked
// sequence when the circuit has a clk/CLK input.
//
// Examples:
//
//	parsim -circuit mul16 -engine timewarp -lps 8 -partition fm
//	parsim -bench mydesign.bench -engine cmb -lps 4 -vcd out.vcd
//	parsim -circuit c17 -engine seq -vectors 100
//	parsim -circuit dag1000 -engine sync -trace-out t.json -metrics-out m.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim/adapt"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/timewarp"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Exit codes classify failures for scripts and the e2e suite: 2 causality
// violation, 3 watchdog hang, 4 panic recovered by the supervision layer,
// 5 event limit exceeded, 6 distributed shard loss with the restart
// budget exhausted, 1 anything else.
const (
	exitCausality  = 2
	exitHang       = 3
	exitPanic      = 4
	exitEventLimit = 5
	exitShardLoss  = 6
)

func main() {
	var (
		benchPath  = flag.String("bench", "", "read circuit from an ISCAS .bench file")
		circName   = flag.String("circuit", "c17", "built-in circuit: c17, s27, mulN, rippleN, claN, lfsrN, counterN, shiftN, dagN, seqN")
		engineName = flag.String("engine", "seq", "engine: seq, oblivious, sync, cmb, cmb-demand, cmb-detect, timewarp, timewarp-lazy, hybrid")
		lps        = flag.Int("lps", 4, "logical processes / workers")
		partName   = flag.String("partition", "fm", "partitioner: random, contiguous, strings, cones, levels, kl, fm, anneal, multilevel")
		optimize   = flag.Bool("opt", false, "run the netlist optimizer pipeline before simulation")
		optPasses  = flag.String("opt-passes", "", "comma-separated optimizer passes (implies -opt; default constprop,hash,bufclean,dce; also: invpair, balance)")
		coneSplit  = flag.Bool("cone-split", false, "group whole combinational cones onto LPs and evaluate each obliviously in one sweep (overrides -partition)")
		presim     = flag.Bool("presim", false, "weight the partitioner with a pre-simulation profile")
		system     = flag.Int("system", 9, "logic value system: 2, 4, or 9")
		queueName  = flag.String("queue", "heap", "pending-event set: heap, calendar, wheel")
		wide       = flag.Bool("wide", false, "wide evaluation: pack -lanes independent stimulus batches into 64-lane words, 64 vectors per gate op (2- or 4-valued only)")
		lanes      = flag.Int("lanes", logic.Lanes, "meaningful lanes of a -wide run (1..64); each lane gets an independent stimulus")
		nvectors   = flag.Int("vectors", 50, "number of random vectors")
		activity   = flag.Float64("activity", 0.5, "per-input toggle probability per vector")
		period     = flag.Uint64("period", 40, "ticks between vectors")
		seed       = flag.Int64("seed", 1, "stimulus and partition seed")
		fineDelays = flag.Uint64("fine-delays", 0, "assign random delays in [1,N] to generated circuits (0 = unit)")
		window     = flag.Uint64("window", 0, "Time Warp moving window (0 = unbounded)")
		maxEvents  = flag.Uint64("max-events", 0, "abort with an error after this many events (0 = unlimited)")
		lazy       = flag.Bool("lazy", false, "Time Warp lazy cancellation")
		fullCopy   = flag.Bool("full-copy", false, "Time Warp full-copy state saving")
		vcdPath    = flag.String("vcd", "", "write the output waveform as VCD to this file")
		metricsOut = flag.String("metrics-out", "", "write the machine-readable metrics report (JSON) to this file")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event timeline (chrome://tracing, Perfetto) to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (enables pprof LP labels)")
		quiet      = flag.Bool("q", false, "print only the summary line")

		supervised = flag.Bool("supervise", false, "run under the supervision layer (panic isolation, retries, fallback)")
		watchdog   = flag.Duration("watchdog", 0, "abort after this long without progress (implies -supervise)")
		retries    = flag.Int("retries", 1, "supervised retries of the selected engine before falling back")
		fallback   = flag.Bool("fallback", true, "supervised: degrade to sync then seq when retries are exhausted")
		ckptEvery  = flag.Uint64("checkpoint-every", 0, "write a checkpoint every N ticks of modeled time (0 = off)")
		ckptDir    = flag.String("checkpoint-dir", "checkpoints", "directory receiving ckpt-<time>.json files")
		restore    = flag.String("restore", "", "resume from this checkpoint file")
		histLimit  = flag.Uint64("history-limit", 0, "Time Warp saved-history bound in words (0 = unlimited)")
		adaptive   = flag.Bool("adapt", false, "closed-loop adaptive control: self-tune the optimism window, switch engines, and rebalance LPs mid-run")
		adaptSpec  = flag.String("adapt-spec", "", "adaptive controller configuration: inline JSON or a path to a JSON file (implies -adapt)")

		distShards    = flag.Int("dist", 0, "distributed: run the engine across this many socket-connected worker shards (0 = off)")
		distExec      = flag.String("dist-exec", "", "distributed: path to the parsimd-worker binary (empty = in-process workers over real sockets)")
		distNetwork   = flag.String("dist-network", "tcp", "distributed: transport network, tcp or unix")
		distWorkDir   = flag.String("dist-workdir", "", "distributed: directory for shard checkpoints and boot files (empty = temporary)")
		distRestarts  = flag.Int("dist-restarts", 2, "distributed: fleet restart budget after a shard loss")
		distHBTimeout = flag.Duration("dist-heartbeat-timeout", time.Second, "distributed: a result-less shard silent this long is declared lost")
		distHBEvery   = flag.Duration("dist-heartbeat-every", 0, "distributed: worker heartbeat pace (0 = engine default; also the GVT piggyback cadence on a mesh)")
		distMesh      = flag.Bool("dist-mesh", false, "distributed: route inter-shard event batches over direct worker-to-worker links (hub keeps only the control plane)")
		ckptDelta     = flag.Bool("ckpt-delta", false, "distributed: after the first full shard snapshot per attempt, write fingerprint-chained delta records at later boundaries (requires -dist)")

		distChaosSeed   = flag.Uint64("dist-chaos-seed", 1, "distributed chaos: netfault plan seed")
		distChaosFaults = flag.Int("dist-chaos-faults", 0, "distributed chaos: number of planned network faults (0 = off)")
		distChaosKill   = flag.Bool("dist-chaos-kill", false, "distributed chaos: allow worker-kill faults in the plan")

		faultPanicLP = flag.Int("fault-panic-lp", -1, "chaos: panic once inside this LP (-1 = off)")
		faultHangLP  = flag.Int("fault-hang-lp", -1, "chaos: hang this LP until the run aborts (-1 = off)")
		faultBias    = flag.Uint64("fault-lookahead-bias", 0, "chaos: inflate cmb lookahead promises by N ticks (forces causality violations)")
	)
	flag.Parse()
	set := map[string]bool{} // flags given on the command line
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *wide && !set["system"] {
		// Nine-valued signals don't pack into two-bit lanes; a wide run
		// defaults to four-valued unless -system was given explicitly.
		*system = 4
	}
	engine, err := core.ParseEngine(*engineName)
	fatal(err)
	method, err := partition.ParseMethod(*partName)
	fatal(err)
	var sys logic.System
	switch *system {
	case 2:
		sys = logic.TwoValued
	case 4:
		sys = logic.FourValued
	case 9:
		sys = logic.NineValued
	default:
		fatal(fmt.Errorf("invalid -system %d", *system))
	}
	var queue eventq.Impl
	switch *queueName {
	case "heap":
		queue = eventq.ImplHeap
	case "calendar":
		queue = eventq.ImplCalendar
	case "wheel":
		queue = eventq.ImplWheel
	default:
		fatal(fmt.Errorf("invalid -queue %q", *queueName))
	}
	if *lps <= 0 {
		*lps = 4
	}
	if *adaptSpec != "" {
		*adaptive = true
	}
	var cancellation timewarp.Cancellation
	if *lazy {
		cancellation = timewarp.Lazy
	}
	var stateSaving timewarp.StateSaving
	if *fullCopy {
		stateSaving = timewarp.FullCopy
	}
	var restored *ckpt.State
	if *restore != "" {
		restored, err = ckpt.ReadFile(*restore)
		fatal(err)
	}

	// The workload, for whichever front end runs it: this process on
	// either plane, or the fleet's hub. Only the parallel engines divide
	// the circuit, so only they pay for weights and a partition.
	spec := pipeline.Spec{
		Bench: *benchPath, Circuit: *circName, FineDelays: *fineDelays, Seed: *seed,
		Opt: *optimize, OptPasses: *optPasses, ConeSplit: *coneSplit,
		Vectors: *nvectors, Activity: *activity, Period: *period, System: sys,
		Partition: method, PartitionSeed: *seed,
	}
	if engine.Parallel() {
		spec.LPs, spec.Presim = *lps, *presim
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fatal(err)
		defer f.Close()
		fatal(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	if *distShards == 0 && (*distMesh || *ckptDelta) {
		fatal(fmt.Errorf("-dist-mesh and -ckpt-delta require -dist"))
	}
	if *distShards > 0 {
		// What a fleet cannot honour is refused by name; every other flag
		// reaches the hub or the workers.
		for _, r := range []struct {
			given     bool
			flag, why string
		}{
			{*wide, "-wide", "the wire format carries scalar values"},
			{*adaptive, "-adapt", "the controllers migrate one process's run through its own checkpoints"},
			{*faultPanicLP >= 0 || *faultHangLP >= 0 || *faultBias > 0, "in-process -fault-* injection", "use -dist-chaos-*"},
			{*traceOut != "", "-trace-out", "per-shard timelines are not merged into one trace"},
			{set["supervise"] || set["retries"], "-supervise/-retries", "a fleet restarts as a whole: use -dist-restarts, -watchdog and -fallback"},
			{set["checkpoint-dir"], "-checkpoint-dir", "shard checkpoints are written to -dist-workdir"},
		} {
			if r.given {
				fatal(fmt.Errorf("-dist does not support %s: %s", r.flag, r.why))
			}
		}
		runDist(dist.Options{
			Shards: *distShards, Engine: *engineName,
			Bench: spec.Bench, Circuit: spec.Circuit, FineDelays: spec.FineDelays, Seed: spec.Seed,
			Vectors: spec.Vectors, Activity: spec.Activity, Period: spec.Period,
			Opt: spec.Opt, OptPasses: spec.OptPasses, ConeSplit: spec.ConeSplit, Presim: spec.Presim,
			LPs: *lps, Partition: *partName, PartitionSeed: spec.PartitionSeed, System: sys,
			Queue: queue, Window: *window, Cancellation: cancellation, StateSaving: stateSaving,
			HistoryLimit: *histLimit, MaxEvents: *maxEvents, HangTimeout: *watchdog,
			Restore: restored, CheckpointEvery: *ckptEvery, WorkDir: *distWorkDir,
			Restarts: *distRestarts, Fallback: *fallback,
			HeartbeatTimeout: *distHBTimeout, HeartbeatEvery: *distHBEvery,
			Network: *distNetwork, Mesh: *distMesh, CkptDelta: *ckptDelta,
		}, *distExec, *distChaosSeed, *distChaosFaults, *distChaosKill, *vcdPath, *metricsOut, *quiet)
		return
	}

	opts := core.Options{
		Engine: engine, LPs: *lps, System: sys, Queue: queue, Window: circuit.Tick(*window),
		MaxEvents: *maxEvents, Cancellation: cancellation, StateSaving: stateSaving,
		HistoryLimit: *histLimit, Restore: restored, PProfLabels: *cpuProfile != "",
	}
	if *traceOut != "" {
		opts.Tracer = trace.NewTracer(engine.String())
	}
	if *faultPanicLP >= 0 || *faultHangLP >= 0 || *faultBias > 0 {
		hook := inject.NewHook(uint64(*seed), nil)
		hook.PanicLP = *faultPanicLP
		hook.HangLP = *faultHangLP
		hook.LookaheadBias = *faultBias
		opts.Chaos = hook
	}
	if *supervised || *watchdog > 0 {
		opts.Supervise = &core.SuperviseOptions{
			Watchdog: *watchdog,
			Retries:  *retries,
			Backoff:  10 * time.Millisecond,
			Fallback: *fallback,
		}
	}
	if *ckptEvery > 0 {
		opts.CheckpointEvery = circuit.Tick(*ckptEvery)
		opts.CheckpointDir = *ckptDir
	}
	if *wide {
		// The nine-valued system does not fit a lane, and the checkpoint
		// format stores scalar values (core.SimulateWide is the authority
		// on the latter; these name the flag).
		switch {
		case sys == logic.NineValued:
			fatal(fmt.Errorf("-wide needs -system 2 or 4: nine-valued signals do not pack into two-bit lanes"))
		case restored != nil:
			fatal(fmt.Errorf("-wide does not support -restore: the checkpoint format stores scalar values"))
		case *ckptEvery > 0:
			fatal(fmt.Errorf("-wide does not support -checkpoint-every: the checkpoint format stores scalar values"))
		case *adaptive:
			fatal(fmt.Errorf("-adapt does not support -wide: the controllers drive the scalar engines' checkpoint/restart path"))
		}
		spec.Lanes = *lanes
	}
	if *adaptive {
		sp, err := adapt.ParseSpec(*adaptSpec)
		fatal(err)
		opts.Adapt = sp
	}

	run, err := pipeline.Prepare(spec)
	fatal(err)
	// The structure statistics are computed even under -q, as they always
	// were: benchmark/pipeline.go's replica of this file counts on it.
	if st := run.Circuit.ComputeStats(); !*quiet {
		printWorkload(run, st)
	}

	var rep *metrics.Report
	if *wide {
		rep = runWide(run, opts, *vcdPath, *quiet)
	} else {
		rep = runScalar(run, opts, *vcdPath, *quiet)
	}
	writeMetrics(*metricsOut, rep, run.OptStats, *quiet)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fatal(err)
		defer f.Close()
		fatal(opts.Tracer.WriteJSON(f))
		if !*quiet {
			fmt.Printf("trace: %d spans (%d dropped) -> %s\n",
				opts.Tracer.TotalSpans(), opts.Tracer.Dropped(), *traceOut)
		}
	}
}

// printWorkload describes the prepared run: what the optimizer did, the
// circuit's structure, and the stimulus on each plane.
func printWorkload(run *pipeline.Prepared, st circuit.Stats) {
	if o := run.OptStats; o != nil {
		fmt.Printf("optimizer: %d -> %d gates (hashed=%d folds=%d bufs=%d dead=%d), depth %d -> %d, %d rounds\n",
			o.GatesBefore, o.GatesAfter, o.GatesHashed, o.ConstFolds,
			o.BufsCleaned, o.DeadRemoved, o.LevelsBefore, o.LevelsAfter, o.Rounds)
	}
	fmt.Printf("circuit: %d gates (%d FFs), %d inputs, %d outputs, depth %d, delays %d..%d\n",
		st.Gates, st.FlipFlops, st.Inputs, st.Outputs, st.CombDepth, st.MinDelay, st.MaxDelay)
	fmt.Printf("stimulus: %d vectors to t=%d, horizon t=%d\n", run.Stim.NumVectors(), run.Stim.End, run.Until)
	if ws := run.WideStim; ws != nil {
		fmt.Printf("wide: %d lanes x %d boundaries (%d vectors), horizon t=%d\n",
			ws.Lanes, ws.NumVectors(), ws.NumVectors()*ws.Lanes, run.Until)
	}
}

// runScalar simulates the run on the scalar plane and reports it.
func runScalar(run *pipeline.Prepared, opts core.Options, vcdPath string, quiet bool) *metrics.Report {
	c := run.Circuit
	rep, err := core.Run(run, opts)
	fatal(err)

	if a := rep.Adapt; a != nil && !quiet {
		fmt.Printf("adapt: segments=%d switches=%d rebalances=%d window-changes=%d final-engine=%s final-window=%d committed=%v\n",
			a.Segments, a.EngineSwitches, a.Rebalances, a.WindowChanges, a.FinalEngine, a.FinalWindow, a.Committed)
		for _, d := range a.Decisions {
			fmt.Printf("adapt: %s\n", d)
		}
	}
	printSupervision(rep.Supervision, quiet)

	model := stats.DefaultCostModel()
	fmt.Printf("engine=%s lps=%d modeled=%.2fms wall=%v\n",
		opts.Engine, rep.Processors, rep.Modeled/1e6, rep.Stats.Wall.Round(10))
	if !quiet {
		if opts.Engine != core.EngineSeq {
			fmt.Printf("counters: %s\n", rep.Stats.Summary(model))
			base, err := core.Run(run, core.Options{Engine: core.EngineSeq, System: opts.System, Queue: opts.Queue})
			fatal(err)
			fmt.Printf("modeled speedup over sequential: %.2fx on %d processors\n",
				rep.SpeedupOver(base, model), rep.Processors)
		} else {
			fmt.Printf("counters: evals=%d events=%d timesteps=%d\n",
				rep.SeqWork.Evaluations, rep.SeqWork.EventsApplied, rep.SeqWork.Steps)
		}
		fmt.Printf("final outputs:")
		for _, o := range c.Outputs {
			fmt.Printf(" %s=%v", c.Gate(o).Name, rep.Values[o])
		}
		fmt.Println()
	}
	writeVCD(vcdPath, c, rep.Waveform, "waveform", quiet)
	return rep.Metrics
}

// runWide simulates the run's lanes on the wide plane, 64 vectors per
// gate operation, and reports it; -vcd holds lane 0.
func runWide(run *pipeline.Prepared, opts core.Options, vcdPath string, quiet bool) *metrics.Report {
	c := run.Circuit
	start := time.Now()
	rep, err := core.RunWide(run, opts)
	fatal(err)
	wall := time.Since(start)
	printSupervision(rep.Supervision, quiet)

	fmt.Printf("engine=%s-wide lps=%d lanes=%d vectors=%d vectors/s=%.0f wall=%v\n",
		opts.Engine, rep.Processors, rep.Lanes, rep.Vectors, rep.VectorsPerSec,
		wall.Round(10*time.Microsecond))
	if !quiet {
		if opts.Engine != core.EngineSeq {
			fmt.Printf("counters: %s\n", rep.Stats.Summary(stats.DefaultCostModel()))
		}
		fmt.Printf("final outputs (lane 0):")
		for _, o := range c.Outputs {
			fmt.Printf(" %s=%v", c.Gate(o).Name, rep.Values[o].Get(0))
		}
		fmt.Println()
	}
	if vcdPath != "" {
		init := func(g circuit.GateID) logic.Value {
			return opts.System.Project(circuit.InitialValue(c.Gates[g].Kind))
		}
		writeVCD(vcdPath, c, rep.Waveform.Lane(0, init), "lane-0 waveform", quiet)
	}
	return rep.Metrics
}

// writeVCD writes the primary outputs' waveform to path ("" = nowhere).
func writeVCD(path string, c *circuit.Circuit, wf trace.Waveform, what string, quiet bool) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	fatal(err)
	defer f.Close()
	fatal(trace.WriteVCD(f, c, c.Outputs, wf, "1ns"))
	if !quiet {
		fmt.Printf("wrote %s (%d samples) to %s\n", what, len(wf), path)
	}
}

// writeMetrics writes the run's metrics report to path ("" = nowhere),
// with the optimizer's headline numbers added as gauges (cone_count is
// set where the partition is known: core, or the fleet's hub).
func writeMetrics(path string, rep *metrics.Report, st *opt.Stats, quiet bool) {
	if path == "" {
		return
	}
	if rep == nil {
		fatal(fmt.Errorf("no metrics report produced"))
	}
	if st != nil {
		rep.SetGauge("gates_removed", float64(st.GatesRemoved))
		rep.SetGauge("gates_hashed", float64(st.GatesHashed))
		rep.SetGauge("levels_before", float64(st.LevelsBefore))
		rep.SetGauge("levels_after", float64(st.LevelsAfter))
	}
	f, err := os.Create(path)
	fatal(err)
	defer f.Close()
	fatal(rep.WriteJSON(f))
	if !quiet {
		fmt.Printf("metrics: %s -> %s\n", rep.Summary(), path)
	}
}

// printSupervision reports what the supervision layer did, if it ran.
func printSupervision(s *core.SupervisionReport, quiet bool) {
	if s == nil || quiet {
		return
	}
	fmt.Printf("supervision: final-engine=%s recoveries=%d fallbacks=%d\n", s.FinalEngine, s.Recoveries, s.Fallbacks)
	for _, a := range s.Attempts {
		fmt.Printf("supervision: recovered attempt: %s\n", a)
	}
}

func fatal(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "parsim:", err)
	code := 1
	var se *core.SimError
	if errors.As(err, &se) {
		switch se.Kind {
		case core.KindCausality:
			code = exitCausality
		case core.KindHang:
			code = exitHang
		case core.KindPanic:
			code = exitPanic
		case core.KindEventLimit:
			code = exitEventLimit
		case core.KindShardLoss:
			code = exitShardLoss
		}
	}
	os.Exit(code)
}
