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

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/sim/adapt"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/timewarp"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
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

	if *wide && *system == 9 {
		// Nine-valued signals don't pack into two-bit lanes; a wide run
		// defaults to four-valued unless -system was given explicitly.
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "system" })
		if !explicit {
			*system = 4
		}
	}

	c, err := loadCircuit(*benchPath, *circName, *fineDelays, *seed)
	fatal(err)

	// The optimizer runs before stimulus generation: primary inputs and
	// outputs always survive with their names, so stimuli and VCD watch
	// lists built against the optimized netlist resolve identically.
	var ostats *opt.Stats
	if *optimize || *optPasses != "" {
		passes, err := opt.ParsePasses(*optPasses)
		fatal(err)
		res, err := opt.Optimize(c, opt.Options{Passes: passes})
		fatal(err)
		c, ostats = res.Circuit, &res.Stats
		if !*quiet {
			fmt.Printf("optimizer: %d -> %d gates (hashed=%d folds=%d bufs=%d dead=%d), depth %d -> %d, %d rounds\n",
				ostats.GatesBefore, ostats.GatesAfter, ostats.GatesHashed, ostats.ConstFolds,
				ostats.BufsCleaned, ostats.DeadRemoved, ostats.LevelsBefore, ostats.LevelsAfter, ostats.Rounds)
		}
	}

	stim, err := makeStimulus(c, *nvectors, *activity, circuit.Tick(*period), *seed)
	fatal(err)

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

	until := core.Horizon(c, stim)

	if *distShards == 0 && (*distMesh || *ckptDelta) {
		fatal(fmt.Errorf("-dist-mesh and -ckpt-delta require -dist"))
	}
	if *distShards > 0 {
		// The distributed path regenerates the circuit and stimulus inside
		// every worker from the job spec, so transformations applied only
		// in this process (optimizer, cone-split, pre-simulation weights)
		// and single-process-only machinery (wide, adaptive control,
		// restore, in-process fault injection) cannot ride along.
		switch {
		case *wide:
			fatal(fmt.Errorf("-dist does not support -wide (scalar wire format)"))
		case *optimize || *optPasses != "":
			fatal(fmt.Errorf("-dist does not support -opt: workers regenerate the unoptimized netlist from the job spec"))
		case *coneSplit:
			fatal(fmt.Errorf("-dist does not support -cone-split"))
		case *presim:
			fatal(fmt.Errorf("-dist does not support -presim"))
		case *restore != "":
			fatal(fmt.Errorf("-dist does not support -restore (recovery boots from its own shard checkpoints)"))
		case *adaptive || *adaptSpec != "":
			fatal(fmt.Errorf("-dist does not support -adapt"))
		case *faultPanicLP >= 0 || *faultHangLP >= 0 || *faultBias > 0:
			fatal(fmt.Errorf("-dist does not support in-process fault injection (use -dist-chaos-*)"))
		}
		if !*quiet {
			st := c.ComputeStats()
			fmt.Printf("circuit: %d gates (%d FFs), %d inputs, %d outputs, depth %d, delays %d..%d\n",
				st.Gates, st.FlipFlops, st.Inputs, st.Outputs, st.CombDepth, st.MinDelay, st.MaxDelay)
			fmt.Printf("stimulus: %d vectors to t=%d, horizon t=%d\n", stim.NumVectors(), stim.End, until)
		}
		runDist(distConfig{
			shards: *distShards, exec: *distExec, network: *distNetwork,
			workDir: *distWorkDir, restarts: *distRestarts, hbTimeout: *distHBTimeout,
			hbEvery: *distHBEvery, mesh: *distMesh, ckptDelta: *ckptDelta,
			chaosSeed: *distChaosSeed, chaosFaults: *distChaosFaults, chaosKill: *distChaosKill,
			benchPath: *benchPath, circName: *circName, fineDelays: *fineDelays,
			seed: *seed, vectors: *nvectors, activity: *activity, period: *period,
			engine: *engineName, until: uint64(until), lps: *lps, partition: *partName,
			system: sys, maxEvents: *maxEvents, watchdog: *watchdog,
			ckptEvery: *ckptEvery, fallback: *fallback,
			vcdPath: *vcdPath, metricsOut: *metricsOut, quiet: *quiet, c: c,
		})
		return
	}

	opts := core.Options{
		Engine: engine, LPs: *lps, Partition: method, PartitionSeed: *seed,
		System: sys, Queue: queue, Window: circuit.Tick(*window),
		MaxEvents: *maxEvents, ConeSplit: *coneSplit,
	}
	if *traceOut != "" {
		opts.Tracer = trace.NewTracer(engine.String())
	}
	if *cpuProfile != "" {
		opts.PProfLabels = true
		f, err := os.Create(*cpuProfile)
		fatal(err)
		defer f.Close()
		fatal(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *lazy {
		opts.Cancellation = timewarp.Lazy
	}
	if *fullCopy {
		opts.StateSaving = timewarp.FullCopy
	}
	if *presim && engine.Parallel() {
		w, err := core.PreSimulate(c, stim, until, sys)
		fatal(err)
		opts.Weights = w
	}
	if *faultPanicLP >= 0 || *faultHangLP >= 0 || *faultBias > 0 {
		hook := inject.NewHook(uint64(*seed), nil)
		hook.PanicLP = *faultPanicLP
		hook.HangLP = *faultHangLP
		hook.LookaheadBias = *faultBias
		opts.Chaos = hook
	}
	if *watchdog > 0 {
		*supervised = true
	}
	if *supervised {
		opts.Supervise = &core.SuperviseOptions{
			Watchdog: *watchdog,
			Retries:  *retries,
			Backoff:  10 * time.Millisecond,
			Fallback: *fallback,
		}
	}
	opts.HistoryLimit = *histLimit
	if *ckptEvery > 0 {
		opts.CheckpointEvery = circuit.Tick(*ckptEvery)
		opts.CheckpointDir = *ckptDir
	}
	if *restore != "" {
		st, err := ckpt.ReadFile(*restore)
		fatal(err)
		opts.Restore = st
	}
	if *adaptSpec != "" {
		*adaptive = true
	}
	if *adaptive {
		if *wide {
			fatal(fmt.Errorf("-adapt does not support -wide: the controllers drive the scalar engines' checkpoint/restart path"))
		}
		sp, err := adapt.ParseSpec(*adaptSpec)
		fatal(err)
		opts.Adapt = sp
	}

	st := c.ComputeStats()
	if !*quiet {
		fmt.Printf("circuit: %d gates (%d FFs), %d inputs, %d outputs, depth %d, delays %d..%d\n",
			st.Gates, st.FlipFlops, st.Inputs, st.Outputs, st.CombDepth, st.MinDelay, st.MaxDelay)
		fmt.Printf("stimulus: %d vectors to t=%d, horizon t=%d\n", stim.NumVectors(), stim.End, until)
	}

	if *wide {
		runWide(c, *lanes, *nvectors, *activity, circuit.Tick(*period), *seed, opts,
			*vcdPath, *metricsOut, *traceOut, *quiet, ostats)
		return
	}

	rep, err := core.Simulate(c, stim, until, opts)
	fatal(err)
	addOptGauges(rep.Metrics, ostats)

	if rep.Adapt != nil && !*quiet {
		a := rep.Adapt
		fmt.Printf("adapt: segments=%d switches=%d rebalances=%d window-changes=%d final-engine=%s final-window=%d committed=%v\n",
			a.Segments, a.EngineSwitches, a.Rebalances, a.WindowChanges, a.FinalEngine, a.FinalWindow, a.Committed)
		for _, d := range a.Decisions {
			fmt.Printf("adapt: %s\n", d)
		}
	}

	printSupervision(rep.Supervision, *quiet)

	model := stats.DefaultCostModel()
	fmt.Printf("engine=%s lps=%d modeled=%.2fms wall=%v\n",
		engine, rep.Processors, rep.Modeled/1e6, rep.Stats.Wall.Round(10))
	if !*quiet {
		if engine != core.EngineSeq {
			fmt.Printf("counters: %s\n", rep.Stats.Summary(model))
			base, err := core.Simulate(c, stim, until, core.Options{Engine: core.EngineSeq, System: sys, Queue: queue})
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

	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		fatal(err)
		defer f.Close()
		fatal(trace.WriteVCD(f, c, c.Outputs, rep.Waveform, "1ns"))
		if !*quiet {
			fmt.Printf("wrote %d waveform samples to %s\n", len(rep.Waveform), *vcdPath)
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		fatal(err)
		defer f.Close()
		if rep.Metrics == nil {
			fatal(fmt.Errorf("no metrics report produced"))
		}
		fatal(rep.Metrics.WriteJSON(f))
		if !*quiet {
			fmt.Printf("metrics: %s -> %s\n", rep.Metrics.Summary(), *metricsOut)
		}
	}
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

// runWide executes the -wide path: -lanes independent stimulus batches are
// packed into 64-lane words and evaluated by the wide instantiation of the
// selected engine, 64 vectors per gate operation. The nine-valued system
// does not fit a lane, and the checkpoint format stores scalar values, so
// those flags are rejected up front (core.SimulateWide is the authority).
func runWide(c *circuit.Circuit, lanes, vecs int, activity float64, period circuit.Tick,
	seed int64, opts core.Options, vcdPath, metricsOut, traceOut string, quiet bool, ostats *opt.Stats) {
	switch {
	case opts.System == logic.NineValued:
		fatal(fmt.Errorf("-wide needs -system 2 or 4: nine-valued signals do not pack into two-bit lanes"))
	case opts.Restore != nil:
		fatal(fmt.Errorf("-wide does not support -restore: the checkpoint format stores scalar values"))
	case opts.CheckpointEvery > 0:
		fatal(fmt.Errorf("-wide does not support -checkpoint-every: the checkpoint format stores scalar values"))
	}

	ws, err := makeWideStimulus(c, lanes, vecs, activity, period, seed, opts.System)
	fatal(err)
	until := core.WideHorizon(c, ws)
	if !quiet {
		fmt.Printf("wide: %d lanes x %d boundaries (%d vectors), horizon t=%d\n",
			ws.Lanes, ws.NumVectors(), ws.NumVectors()*ws.Lanes, until)
	}

	start := time.Now()
	rep, err := core.SimulateWide(c, ws, until, opts)
	fatal(err)
	wall := time.Since(start)
	addOptGauges(rep.Metrics, ostats)
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
		wf := rep.Waveform.Lane(0, init)
		f, err := os.Create(vcdPath)
		fatal(err)
		defer f.Close()
		fatal(trace.WriteVCD(f, c, c.Outputs, wf, "1ns"))
		if !quiet {
			fmt.Printf("wrote lane-0 waveform (%d samples) to %s\n", len(wf), vcdPath)
		}
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		fatal(err)
		defer f.Close()
		if rep.Metrics == nil {
			fatal(fmt.Errorf("no metrics report produced"))
		}
		fatal(rep.Metrics.WriteJSON(f))
		if !quiet {
			fmt.Printf("metrics: %s -> %s\n", rep.Metrics.Summary(), metricsOut)
		}
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		fatal(err)
		defer f.Close()
		fatal(opts.Tracer.WriteJSON(f))
		if !quiet {
			fmt.Printf("trace: %d spans (%d dropped) -> %s\n",
				opts.Tracer.TotalSpans(), opts.Tracer.Dropped(), traceOut)
		}
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

// addOptGauges publishes the optimizer's headline numbers into the run's
// metrics report (cone_count is set by core when -cone-split is active).
func addOptGauges(rep *metrics.Report, st *opt.Stats) {
	if rep == nil || st == nil {
		return
	}
	rep.SetGauge("gates_removed", float64(st.GatesRemoved))
	rep.SetGauge("gates_hashed", float64(st.GatesHashed))
	rep.SetGauge("levels_before", float64(st.LevelsBefore))
	rep.SetGauge("levels_after", float64(st.LevelsAfter))
}

// makeWideStimulus is makeStimulus on the wide plane: lanes independent
// clocked or random batches sharing the clock waveform but differently
// seeded, packed into word-valued changes.
func makeWideStimulus(c *circuit.Circuit, lanes, vecs int, activity float64,
	period circuit.Tick, seed int64, sys logic.System) (*vectors.WideStimulus, error) {
	for _, clk := range []string{"clk", "CLK", "__CLK"} {
		if _, ok := c.ByName(clk); ok && isInput(c, clk) {
			ws, _, err := vectors.ClockedBatch(c, vectors.ClockedConfig{
				Clock: clk, Cycles: vecs, HalfPeriod: period, Activity: activity, Seed: seed,
			}, lanes, sys)
			return ws, err
		}
	}
	ws, _, err := vectors.RandomBatch(c, vectors.RandomConfig{
		Vectors: vecs, Period: period, Activity: activity, Seed: seed,
	}, lanes, sys)
	return ws, err
}

// loadCircuit resolves the circuit source.
func loadCircuit(benchPath, name string, fine uint64, seed int64) (*circuit.Circuit, error) {
	if benchPath != "" {
		f, err := os.Open(benchPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return bench.Read(f)
	}
	delays := gen.Unit
	if fine > 0 {
		delays = gen.Fine(circuit.Tick(fine), seed)
	}
	return gen.ByName(name, delays, seed)
}

// makeStimulus builds clocked stimulus when the circuit has a clock input,
// random vectors otherwise.
func makeStimulus(c *circuit.Circuit, vecs int, activity float64, period circuit.Tick, seed int64) (*vectors.Stimulus, error) {
	for _, clk := range []string{"clk", "CLK", "__CLK"} {
		if _, ok := c.ByName(clk); ok {
			if isInput(c, clk) {
				return vectors.Clocked(c, vectors.ClockedConfig{
					Clock: clk, Cycles: vecs, HalfPeriod: period, Activity: activity, Seed: seed,
				})
			}
		}
	}
	return vectors.Random(c, vectors.RandomConfig{
		Vectors: vecs, Period: period, Activity: activity, Seed: seed,
	})
}

func isInput(c *circuit.Circuit, name string) bool {
	id, ok := c.ByName(name)
	if !ok {
		return false
	}
	return c.Gate(id).Kind == circuit.Input
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
