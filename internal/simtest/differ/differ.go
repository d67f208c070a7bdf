// Package differ is the differential harness: randomized trials, each
// one circuit x stimulus x value plane x optimizer pass subset x engine x
// partition x LP count, optionally under a seeded chaos fault plan,
// checked lane by lane for waveform and final-value equality against the
// sequential reference of the unoptimized netlist, and checked for the
// counter conservation laws every engine's metrics obey.
// It lives below simtest (rather than in it) because it must import
// core — which imports every engine — while the engines' own test files
// import simtest's circuit helpers.
package differ

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	simsync "repro/internal/sim/sync"
	"repro/internal/sim/timewarp"
	"repro/internal/simtest/chaos"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// Arm pins one binary choice of a trial; the zero value draws it.
type Arm int8

const (
	Draw Arm = iota
	Off
	On
)

// draw resolves the arm: a pinned arm as pinned, a drawn one true with
// probability 1/n.
func (a Arm) draw(rng *rand.Rand, n int) bool {
	if a == Draw {
		return rng.Intn(n) == 0
	}
	return a == On
}

// DiffConfig seeds the differential harness. Every arm of a trial is
// drawn independently unless the config pins it.
type DiffConfig struct {
	// Seed is the master seed; every trial derives its own seed from it.
	Seed int64
	// MaxGates bounds generated circuit size (default 400). It must
	// exceed minGates, the random DAG and sequential families' floor.
	MaxGates int
	// Engines limits the engines exercised; nil means DiffEngines.
	Engines []core.Engine
	// Methods limits the partition methods drawn; nil means diffMethods.
	Methods []partition.Method
	// Wide pins the value plane: Off is the scalar plane (2- or
	// 9-valued), On the wide plane (2- or 4-valued; 1, partial or 64
	// lanes, each its own stimulus).
	Wide Arm
	// Opt pins whether the netlist is optimized before the engine runs;
	// Passes, when non-empty, pins the pass subset and implies On.
	Opt    Arm
	Passes []string
	// ChaosFaults, when positive, runs every trial under a seeded inject
	// plan of that many transport faults and stalls; the asynchronous
	// engines (cmb, timewarp, hybrid) honor it.
	ChaosFaults int
	// LookaheadBias is handed to the chaos hook, which then inflates every
	// conservative link's lookahead by it: a deliberately broken promise,
	// for the harness self-test only.
	LookaheadBias uint64
	// Rebalance, when its Interval is positive, turns dynamic load
	// balancing on in a trial that drew the sync engine. core does not
	// expose it, so such a trial calls the engine directly.
	Rebalance simsync.RebalanceConfig
}

// minGates is the random DAG and sequential families' smallest circuit.
const minGates = 50

// DiffEngines is the default engine set: every parallel event-driven
// engine, each of which must reproduce the sequential reference waveform
// exactly on either plane. (The cycle-based oblivious engine settles per
// boundary instead; its equivalence suites compare settled values.)
var DiffEngines = []core.Engine{
	core.EngineSync,
	core.EngineCMB, core.EngineCMBDemand, core.EngineCMBDetect,
	core.EngineTimeWarp, core.EngineTimeWarpLazy,
	core.EngineHybrid,
}

// diffMethods are the partition methods the harness samples: eight
// heuristics, then cone-split's fat sweeping LPs. MethodAnneal is
// excluded: its move budget makes trial cost dominated by partitioning
// rather than simulation.
var diffMethods = []partition.Method{
	partition.MethodRandom, partition.MethodContiguous, partition.MethodStrings,
	partition.MethodCones, partition.MethodLevels, partition.MethodKL,
	partition.MethodFM, partition.MethodMultilevel, partition.MethodConeSplit,
}

// Trial is one fully-specified differential check, a pure function of
// (DiffConfig, Index): a failure is reproducible from its repro line, and
// its spec is enough to rebuild the case as a standalone test.
type Trial struct {
	cfg   DiffConfig
	Index int
	Seed  int64
	// Spec names every arm the trial drew, precisely enough to
	// reconstruct the circuit and stimulus by hand.
	Spec string
	C    *circuit.Circuit
	// Stims holds one scalar stimulus per lane; a scalar trial has one.
	// Wide trials run them packed on the wide plane.
	Stims []*vectors.Stimulus
	Wide  bool
	// Until is the simulation horizon.
	Until circuit.Tick
	// Passes is the optimizer pipeline under test, nil for none (a subset
	// of opt.DefaultPasses, so the exactness contract applies).
	Passes []string
	// Opts is the engine configuration under test.
	Opts core.Options
	// Plan and Rebalance carry the DiffConfig arms; every run gets a
	// fresh chaos hook over Plan, or over the subset being shrunk.
	Plan      inject.Plan
	Rebalance simsync.RebalanceConfig
}

// GenTrial deterministically derives trial i from the config. The
// circuit, stimulus, engine and partition come from one random stream and
// the plane, system and optimizer arms from a second, so pinning or
// drawing those never changes a trial's circuit, engine or partition.
func GenTrial(cfg DiffConfig, i int) (*Trial, error) {
	maxGates := cfg.MaxGates
	if maxGates == 0 {
		maxGates = 400
	}
	if maxGates <= minGates {
		return nil, fmt.Errorf("differ: MaxGates %d must exceed the random families' floor of %d gates", maxGates, minGates)
	}
	engines, methods := cfg.Engines, cfg.Methods
	if engines == nil {
		engines = DiffEngines
	}
	if methods == nil {
		methods = diffMethods
	}
	seed := cfg.Seed*1_000_003 + int64(i)
	rng := rand.New(rand.NewSource(seed))
	arms := rand.New(rand.NewSource(^seed))
	tr := &Trial{cfg: cfg, Index: i, Seed: seed}

	var spec strings.Builder
	c, stimulus, err := genWorkload(rng, maxGates, seed, &spec)
	if err != nil {
		return nil, fmt.Errorf("differ: trial %d (seed %d): %w", i, seed, err)
	}
	tr.C = c

	opts := core.Options{
		Engine:        engines[rng.Intn(len(engines))],
		LPs:           1 + rng.Intn(8),
		Partition:     methods[rng.Intn(len(methods))],
		PartitionSeed: rng.Int63n(1 << 30),
		System:        logic.TwoValued,
	}
	switch opts.Engine {
	case core.EngineTimeWarp, core.EngineTimeWarpLazy:
		if rng.Intn(2) == 0 {
			opts.StateSaving = timewarp.FullCopy
		}
		if rng.Intn(3) == 0 {
			opts.Window = circuit.Tick(20 + rng.Intn(200))
		}
	case core.EngineHybrid:
		opts.IntraWorkers = 1 + rng.Intn(3)
	}

	lanes := 1
	if tr.Wide = cfg.Wide.draw(arms, 2); tr.Wide {
		// Lane counts sample the edges and the middle: a single lane (wide
		// machinery, scalar workload), a partial word, and the full word.
		lanes = []int{1, 2 + arms.Intn(62), logic.Lanes}[arms.Intn(3)]
		fmt.Fprintf(&spec, "; plane=wide lanes=%d (lane k seeded %d+k)", lanes, seed)
	} else {
		spec.WriteString("; plane=scalar")
	}
	if arms.Intn(2) == 0 {
		opts.System = logic.NineValued
		if tr.Wide {
			opts.System = logic.FourValued
		}
	}
	for k := 0; k < lanes; k++ {
		s, err := stimulus(seed + int64(k))
		if err != nil {
			return nil, fmt.Errorf("differ: trial %d (seed %d) lane %d: %w", i, seed, k, err)
		}
		tr.Stims = append(tr.Stims, s)
		tr.Until = max(tr.Until, seq.HorizonFrom(c, s.End))
	}

	switch {
	case len(cfg.Passes) > 0:
		tr.Passes = cfg.Passes
	case !cfg.Opt.draw(arms, 2):
	case arms.Intn(2) == 0:
		// The full default pipeline half the time (the case users run),
		// otherwise a random non-empty subset in pipeline order.
		tr.Passes = append([]string(nil), opt.DefaultPasses...)
	default:
		for len(tr.Passes) == 0 {
			for _, p := range opt.DefaultPasses {
				if arms.Intn(2) == 0 {
					tr.Passes = append(tr.Passes, p)
				}
			}
		}
	}

	optName := "none"
	if tr.Passes != nil {
		optName = fmt.Sprint(tr.Passes)
	}
	fmt.Fprintf(&spec, " system=%v; opt=%s; engine=%v lps=%d partition=%v/seed=%d",
		opts.System, optName, opts.Engine, opts.LPs, opts.Partition, opts.PartitionSeed)
	if opts.StateSaving == timewarp.FullCopy {
		spec.WriteString(" statesaving=full-copy")
	}
	if opts.Window > 0 {
		fmt.Fprintf(&spec, " window=%d", opts.Window)
	}
	if opts.Engine == core.EngineHybrid {
		fmt.Fprintf(&spec, " intraworkers=%d", opts.IntraWorkers)
	}
	if cfg.ChaosFaults > 0 {
		tr.Plan = inject.NewPlan(uint64(seed), opts.LPs, cfg.ChaosFaults)
		fmt.Fprintf(&spec, " chaos=%d faults", cfg.ChaosFaults)
		if cfg.LookaheadBias > 0 {
			fmt.Fprintf(&spec, " lookahead-bias=%d", cfg.LookaheadBias)
		}
	}
	if opts.Engine == core.EngineSync && cfg.Rebalance.Interval > 0 {
		tr.Rebalance = cfg.Rebalance
		fmt.Fprintf(&spec, " rebalance=every %d steps", tr.Rebalance.Interval)
	}
	tr.Opts = opts
	tr.Spec = spec.String()
	return tr, nil
}

// genWorkload picks a circuit family and a stimulus shape, recording the
// generation parameters in spec. It returns the circuit and the stimulus
// generator for a lane seed.
func genWorkload(rng *rand.Rand, maxGates int, seed int64, spec *strings.Builder) (*circuit.Circuit, func(int64) (*vectors.Stimulus, error), error) {
	delays := gen.Unit
	delayName := "unit"
	if rng.Intn(2) == 0 {
		max := circuit.Tick(3 + rng.Intn(9))
		delays = gen.Fine(max, seed)
		delayName = fmt.Sprintf("fine(%d,%d)", max, seed)
	}

	var (
		c    *circuit.Circuit
		err  error
		seqC bool // needs a clocked stimulus
	)
	switch k := rng.Intn(6); k {
	case 0:
		bits := 4 + rng.Intn(8)
		fmt.Fprintf(spec, "ripple%d delays=%s", bits, delayName)
		c, err = gen.RippleAdder(bits, delays)
	case 1:
		n := 3 + rng.Intn(3)
		fmt.Fprintf(spec, "mul%d delays=%s", n, delayName)
		c, err = gen.ArrayMultiplier(n, delays)
	case 2:
		gates := minGates + rng.Intn(maxGates-minGates)
		loc := rng.Float64()
		fmt.Fprintf(spec, "dag{gates=%d,in=10,out=8,seed=%d,loc=%.2f} delays=%s", gates, seed, loc, delayName)
		c, err = gen.RandomDAG(gen.RandomConfig{
			Gates: gates, Inputs: 10, Outputs: 8, Seed: seed, Locality: loc, Delays: delays,
		})
	case 3:
		gates := minGates + rng.Intn(maxGates-minGates)
		ff := 0.05 + 0.2*rng.Float64()
		fmt.Fprintf(spec, "seq{gates=%d,in=8,out=6,seed=%d,ff=%.2f} delays=%s", gates, seed, ff, delayName)
		c, err = gen.RandomSeq(gen.RandomConfig{
			Gates: gates, Inputs: 8, Outputs: 6, Seed: seed, FFRatio: ff, Delays: delays,
		})
		seqC = true
	case 4:
		bits := 3 + rng.Intn(5)
		fmt.Fprintf(spec, "counter%d delays=%s", bits, delayName)
		c, err = gen.Counter(bits, delays)
		seqC = true
	default:
		bits := 4 + rng.Intn(6)
		fmt.Fprintf(spec, "lfsr%d delays=%s", bits, delayName)
		c, err = gen.LFSR(bits, nil, delays)
		seqC = true
	}
	if err != nil {
		return nil, nil, err
	}

	if seqC {
		cycles := 8 + rng.Intn(15)
		half := 20 + rng.Intn(30)
		act := 0.2 + 0.8*rng.Float64()
		fmt.Fprintf(spec, "; clocked{cycles=%d,half=%d,act=%.2f,seed=%d}", cycles, half, act, seed)
		return c, func(s int64) (*vectors.Stimulus, error) {
			return vectors.Clocked(c, vectors.ClockedConfig{
				Clock: "clk", Cycles: cycles, HalfPeriod: circuit.Tick(half), Activity: act, Seed: s,
			})
		}, nil
	}
	vecs := 5 + rng.Intn(20)
	period := 20 + rng.Intn(50)
	act := 0.05 + 0.95*rng.Float64()
	fmt.Fprintf(spec, "; random{vecs=%d,period=%d,act=%.2f,seed=%d}", vecs, period, act, seed)
	return c, func(s int64) (*vectors.Stimulus, error) {
		return vectors.Random(c, vectors.RandomConfig{
			Vectors: vecs, Period: circuit.Tick(period), Activity: act, Seed: s,
		})
	}, nil
}

// Check optimizes with the trial's pass subset (if any), runs the engine
// on its plane under its chaos plan (if any), and compares every lane
// against the sequential reference of the unoptimized netlist through the
// remap: the waveform, and the final value of every net (of the primary
// outputs when optimized). The run's counters must obey the conservation
// laws, and, where it is defined, the evaluation law. On a failure one
// ddmin shrinks the lane set, then the pass subset, then the fault plan,
// so the report carries the smallest failing batch, pipeline and plan.
func (tr *Trial) Check() error {
	lanes := make([]int, len(tr.Stims))
	for k := range lanes {
		lanes[k] = k
	}
	failure := tr.probe(lanes, tr.Passes, tr.Plan)
	if failure == "" {
		return nil
	}
	if len(lanes) > 1 {
		lanes, failure = chaos.ShrinkIndices(len(lanes), failure, func(idx []int) (bool, string) {
			f := tr.probe(idx, tr.Passes, tr.Plan)
			return f != "", f
		}, 32)
	}
	passes := tr.Passes
	if len(passes) > 0 {
		var idx []int
		idx, failure = chaos.ShrinkIndices(len(passes), failure, func(idx []int) (bool, string) {
			f := tr.probe(lanes, pick(tr.Passes, idx), tr.Plan)
			return f != "", f
		}, 32)
		passes = pick(tr.Passes, idx)
	}
	var faults strings.Builder
	if len(tr.Plan) > 0 {
		var idx []int
		idx, failure = chaos.Shrink(tr.Plan, failure, func(p inject.Plan) string {
			return tr.probe(lanes, passes, p)
		}, 120)
		fmt.Fprintf(&faults, ", faults %v of %d", idx, len(tr.Plan))
		for _, i := range idx {
			fmt.Fprintf(&faults, "\n    [%d] %s", i, tr.Plan[i])
		}
	}
	return tr.fail("check failed (minimal failing lanes %v of %d, passes %v of %v%s):\n%s",
		lanes, len(tr.Stims), passes, tr.Passes, faults.String(), failure)
}

// pick returns xs at the given indices, never nil: an empty pass subset
// means "optimize with no passes" (the ddmin baseline), not "no optimizer".
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// probe runs one comparison over the given lanes under the given pass
// subset (nil: no optimizer) and chaos plan (nil: none) and returns "" on
// success or a divergence description.
func (tr *Trial) probe(lanes []int, passes []string, plan inject.Plan) string {
	if len(lanes) == 0 {
		return ""
	}
	c, stims := tr.C, pick(tr.Stims, lanes)
	back := func(w trace.Waveform) trace.Waveform { return w }
	net := func(g circuit.GateID) (circuit.GateID, bool) { return g, true }
	nets := make([]circuit.GateID, len(c.Kinds))
	for g := range nets {
		nets[g] = circuit.GateID(g)
	}
	if passes != nil {
		res, err := opt.Optimize(tr.C, opt.Options{Passes: passes})
		if err != nil {
			return fmt.Sprintf("Optimize(%v) failed: %v", passes, err)
		}
		for i, s := range stims {
			if stims[i], err = res.Remap.Stimulus(s); err != nil {
				return fmt.Sprintf("lane %d stimulus remap failed: %v", lanes[i], err)
			}
		}
		c, back, net, nets = res.Circuit, res.Remap.WaveformBack, res.Remap.Gate, tr.C.Outputs
	}
	value, wave, tot, err := tr.run(c, stims, plan)
	if err != nil {
		return fmt.Sprintf("engine run failed: %v", err)
	}
	var seqEvals uint64
	for i, k := range lanes {
		ref, err := seq.Run(tr.C, tr.Stims[k], tr.Until, seq.Config{System: tr.Opts.System})
		if err != nil {
			return fmt.Sprintf("lane %d sequential reference failed: %v", k, err)
		}
		if i == 0 {
			seqEvals = ref.Counters.Evaluations
		}
		if d := trace.Diff(ref.Waveform, back(wave(i)), 5); d != "" {
			return fmt.Sprintf("lane %d waveform mismatch vs seq:\n%s", k, d)
		}
		for _, g := range nets {
			ng, ok := net(g)
			if !ok {
				return fmt.Sprintf("primary output %d (%q) eliminated by %v", g, tr.C.Name(g), passes)
			}
			want := ref.Values[g]
			if tr.Wide {
				want = want.ToX01Z()
			}
			if got := value(i, ng); got != want {
				return fmt.Sprintf("lane %d final value mismatch at net %d (%q): seq=%v got=%v",
					k, g, tr.C.Name(g), want, got)
			}
		}
	}
	if f := conservation(tr.Opts.Engine, tot); f != "" {
		return f
	}
	// The evaluation law compares with one scalar lane of the unoptimized
	// netlist; a block sweep evaluates whole cones where the event loop
	// would not.
	sweep := tr.Opts.Partition == partition.MethodConeSplit && tr.Opts.Engine != core.EngineSync
	if tr.Wide || passes != nil || sweep {
		return ""
	}
	switch tr.Opts.Engine {
	case core.EngineTimeWarp, core.EngineTimeWarpLazy, core.EngineHybrid:
		if tot.Evaluations < seqEvals {
			return fmt.Sprintf("evaluations %d < sequential %d (lost work)", tot.Evaluations, seqEvals)
		}
	default:
		if tot.Evaluations != seqEvals {
			return fmt.Sprintf("evaluations %d != sequential %d", tot.Evaluations, seqEvals)
		}
	}
	return ""
}

// conservation checks the laws every engine's counters obey under any
// schedule, partition or fault plan, and returns the first one broken.
// Every message received was sent; lazy cancellation counts a suppressed
// regeneration as sent, so only >= holds there. Nulls folded inside a
// send batch count as sent but never reach the wire.
func conservation(eng core.Engine, tot metrics.LPCounters) string {
	switch {
	case eng == core.EngineTimeWarpLazy && tot.MessagesSent < tot.MessagesRecv:
		return fmt.Sprintf("messages recv %d exceed sent %d", tot.MessagesRecv, tot.MessagesSent)
	case eng != core.EngineTimeWarpLazy && tot.MessagesSent != tot.MessagesRecv:
		return fmt.Sprintf("messages sent %d != recv %d", tot.MessagesSent, tot.MessagesRecv)
	case tot.NullsFolded > tot.NullsSent:
		return fmt.Sprintf("nulls folded %d exceed sent %d", tot.NullsFolded, tot.NullsSent)
	case tot.NullsRecv > tot.NullsSent-tot.NullsFolded:
		return fmt.Sprintf("nulls recv %d exceed transmitted %d (sent %d, folded %d)",
			tot.NullsRecv, tot.NullsSent-tot.NullsFolded, tot.NullsSent, tot.NullsFolded)
	case tot.AntiMessagesSent != tot.AntiMessagesRecv:
		return fmt.Sprintf("anti-messages sent %d != recv %d", tot.AntiMessagesSent, tot.AntiMessagesRecv)
	case tot.EventsRolledBack > 0 && tot.Rollbacks == 0:
		return fmt.Sprintf("%d events rolled back in zero rollbacks", tot.EventsRolledBack)
	}
	return ""
}

// run executes the trial's engine on netlist c over the lane stimuli —
// the one lane alone on the scalar plane, packed on the wide plane —
// under the chaos plan, and returns each lane's final net values and
// waveform and the run's counter totals.
func (tr *Trial) run(c *circuit.Circuit, stims []*vectors.Stimulus, plan inject.Plan) (func(k int, g circuit.GateID) logic.Value, func(k int) trace.Waveform, metrics.LPCounters, error) {
	if !tr.Wide {
		values, wf, tot, err := runPlane(tr, c, stims[0], plan, core.Simulate, simsync.Run)
		return func(_ int, g circuit.GateID) logic.Value { return values[g] },
			func(int) trace.Waveform { return wf }, tot, err
	}
	ws, err := vectors.Pack(c, stims, tr.Opts.System)
	if err != nil {
		return nil, nil, metrics.LPCounters{}, err
	}
	values, wf, tot, err := runPlane(tr, c, ws, plan, core.SimulateWide, simsync.RunWide)
	init := func(g circuit.GateID) logic.Value {
		return tr.Opts.System.Project(circuit.InitialValue(c.Kinds[g]))
	}
	return func(k int, g circuit.GateID) logic.Value { return values[g].Get(k) },
		func(k int) trace.Waveform { return trace.WideWaveform(wf).Lane(k, init) }, tot, err
}

// runPlane runs the trial's engine on one plane: through core, or, for a
// rebalancing trial, on the sync engine directly.
func runPlane[V comparable, S any](tr *Trial, c *circuit.Circuit, stim S, plan inject.Plan,
	simulate func(*circuit.Circuit, S, circuit.Tick, core.Options) (*core.ReportT[V], error),
	rebalanced func(*circuit.Circuit, S, circuit.Tick, simsync.ConfigT[V]) (*simsync.ResultT[V], error),
) ([]V, trace.WaveformT[V], metrics.LPCounters, error) {
	opts := tr.Opts
	if tr.Rebalance.Interval > 0 {
		part, err := partition.New(opts.Partition, c, opts.LPs, partition.Options{Seed: opts.PartitionSeed})
		if err != nil {
			return nil, nil, metrics.LPCounters{}, err
		}
		reg := metrics.NewRegistry(opts.Engine.String())
		res, err := rebalanced(c, stim, tr.Until, simsync.ConfigT[V]{
			Partition: part, System: opts.System, Rebalance: tr.Rebalance, Metrics: reg,
		})
		if err != nil {
			return nil, nil, metrics.LPCounters{}, err
		}
		return res.Values, res.Waveform, reg.Report().Counters(), nil
	}
	if plan != nil {
		opts.Chaos = inject.NewHook(uint64(tr.Seed), plan)
		opts.Chaos.LookaheadBias = tr.cfg.LookaheadBias
	}
	rep, err := simulate(c, stim, tr.Until, opts)
	if opts.Chaos != nil {
		// Checked before the engine error: a violation is the cause, and
		// unlike the engine's own failure mode it does not depend on the
		// schedule, so a shrunk plan fails the same way.
		if v := opts.Chaos.Violations(); len(v) > 0 {
			return nil, nil, metrics.LPCounters{}, fmt.Errorf("chaos transport protocol violation: %s", v[0])
		}
	}
	if err != nil {
		return nil, nil, metrics.LPCounters{}, err
	}
	return rep.Values, rep.Waveform, rep.Metrics.Counters(), nil
}

// fail wraps a mismatch with everything needed to reproduce the trial.
func (tr *Trial) fail(format string, argv ...any) error {
	return fmt.Errorf("differential trial %d (seed %d)\n  spec: %s\n  repro: %s\n  %s",
		tr.Index, tr.Seed, tr.Spec, tr.Repro(), fmt.Sprintf(format, argv...))
}

// Repro is the Go expression that regenerates the trial: the master seed
// and every pinned arm of its config, and its index.
func (tr *Trial) Repro() string {
	return fmt.Sprintf("differ.GenTrial(%#v, %d)", tr.cfg, tr.Index)
}

// GoString prints the config as the Go expression that rebuilds it,
// listing only the fields set.
func (cfg DiffConfig) GoString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "differ.DiffConfig{Seed: %d", cfg.Seed)
	if cfg.MaxGates != 0 {
		fmt.Fprintf(&b, ", MaxGates: %d", cfg.MaxGates)
	}
	if cfg.Engines != nil {
		fmt.Fprintf(&b, ", Engines: []core.Engine{%s}", goList(cfg.Engines))
	}
	if cfg.Methods != nil {
		fmt.Fprintf(&b, ", Methods: []partition.Method{%s}", goList(cfg.Methods))
	}
	for _, a := range []struct {
		field string
		arm   Arm
	}{{"Wide", cfg.Wide}, {"Opt", cfg.Opt}} {
		if a.arm != Draw {
			fmt.Fprintf(&b, ", %s: differ.%s", a.field, [...]string{"Draw", "Off", "On"}[a.arm])
		}
	}
	if cfg.Passes != nil {
		fmt.Fprintf(&b, ", Passes: %#v", cfg.Passes)
	}
	if cfg.ChaosFaults != 0 {
		fmt.Fprintf(&b, ", ChaosFaults: %d", cfg.ChaosFaults)
	}
	if cfg.LookaheadBias != 0 {
		fmt.Fprintf(&b, ", LookaheadBias: %d", cfg.LookaheadBias)
	}
	if cfg.Rebalance.Interval != 0 {
		fmt.Fprintf(&b, ", Rebalance: simsync.RebalanceConfig{Interval: %d}", cfg.Rebalance.Interval)
	}
	b.WriteString("}")
	return b.String()
}

// goList prints enum values as Go literals, each annotated with its name.
func goList[E ~uint8](xs []E) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d /* %v */", x, x)
	}
	return strings.Join(parts, ", ")
}
