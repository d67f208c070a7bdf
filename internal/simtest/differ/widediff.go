package differ

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	simsync "repro/internal/sim/sync"
	"repro/internal/sim/timewarp"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// WideDiffConfig seeds the randomized wide/scalar lockstep harness.
type WideDiffConfig struct {
	// Seed is the master seed; every trial derives its own seed from it.
	Seed int64
	// MaxGates bounds generated circuit size (default 300).
	MaxGates int
	// Engines limits the engines exercised; nil means every wide engine
	// with event semantics (sync, cmb variants, timewarp variants, hybrid).
	Engines []core.Engine
	// ChaosFaults, when positive, runs every trial under a seeded inject
	// plan of that many transport faults and stalls; the asynchronous
	// engines (cmb, timewarp, hybrid) honor it.
	ChaosFaults int
	// Rebalance, when its Interval is positive, turns dynamic load
	// balancing on in the trial's sync engine. core does not expose it, so
	// such a trial calls the engine directly.
	Rebalance simsync.RebalanceConfig
}

// WideDiffEngines is the default wide engine set: every parallel
// event-driven engine's wide path, each of which must reproduce — lane by
// lane — the scalar sequential reference waveform of that lane's stimulus.
var WideDiffEngines = []core.Engine{
	core.EngineSync,
	core.EngineCMB, core.EngineCMBDemand, core.EngineCMBDetect,
	core.EngineTimeWarp, core.EngineTimeWarpLazy,
	core.EngineHybrid,
}

// WideTrial is one fully-specified wide lockstep check: a circuit, a batch
// of per-lane scalar stimuli with their packed wide form, and a wide
// engine configuration. All fields derive deterministically from
// (WideDiffConfig.Seed, Index).
type WideTrial struct {
	Index int
	Seed  int64
	Spec  string
	C     *circuit.Circuit
	// Stims holds the independent per-lane scalar stimuli; Wide is their
	// packed 64-lane form.
	Stims []*vectors.Stimulus
	Wide  *vectors.WideStimulus
	Until circuit.Tick
	Opts  core.Options
	// Plan and Rebalance carry the WideDiffConfig arms; every run gets a
	// fresh chaos hook over Plan.
	Plan      inject.Plan
	Rebalance simsync.RebalanceConfig
}

// GenWideTrial deterministically derives wide trial i from the config.
func GenWideTrial(cfg WideDiffConfig, i int) (*WideTrial, error) {
	if cfg.MaxGates <= 0 {
		cfg.MaxGates = 300
	}
	engines := cfg.Engines
	if engines == nil {
		engines = WideDiffEngines
	}
	seed := cfg.Seed*2_000_029 + int64(i)
	rng := rand.New(rand.NewSource(seed))
	tr := &WideTrial{Index: i, Seed: seed}

	sys := logic.TwoValued
	if rng.Intn(2) == 0 {
		sys = logic.FourValued
	}
	// Lane counts sample the edges and the middle: a single lane (wide
	// machinery, scalar workload), a partial word, and the full word.
	lanes := []int{1, 2 + rng.Intn(62), logic.Lanes}[rng.Intn(3)]

	delays := gen.Unit
	delayName := "unit"
	if rng.Intn(2) == 0 {
		max := circuit.Tick(2 + rng.Intn(6))
		delays = gen.Fine(max, seed)
		delayName = fmt.Sprintf("fine(%d,%d)", max, seed)
	}

	var spec strings.Builder
	var (
		c    *circuit.Circuit
		err  error
		seqC bool
	)
	switch rng.Intn(4) {
	case 0:
		bits := 4 + rng.Intn(6)
		fmt.Fprintf(&spec, "ripple%d delays=%s", bits, delayName)
		c, err = gen.RippleAdder(bits, delays)
	case 1:
		gates := 40 + rng.Intn(cfg.MaxGates-40)
		loc := rng.Float64()
		fmt.Fprintf(&spec, "dag{gates=%d,in=10,out=8,seed=%d,loc=%.2f} delays=%s", gates, seed, loc, delayName)
		c, err = gen.RandomDAG(gen.RandomConfig{
			Gates: gates, Inputs: 10, Outputs: 8, Seed: seed, Locality: loc, Delays: delays,
		})
	case 2:
		gates := 40 + rng.Intn(cfg.MaxGates-40)
		ff := 0.05 + 0.2*rng.Float64()
		fmt.Fprintf(&spec, "seq{gates=%d,in=8,out=6,seed=%d,ff=%.2f} delays=%s", gates, seed, ff, delayName)
		c, err = gen.RandomSeq(gen.RandomConfig{
			Gates: gates, Inputs: 8, Outputs: 6, Seed: seed, FFRatio: ff, Delays: delays,
		})
		seqC = true
	default:
		bits := 3 + rng.Intn(5)
		fmt.Fprintf(&spec, "counter%d delays=%s", bits, delayName)
		c, err = gen.Counter(bits, delays)
		seqC = true
	}
	if err != nil {
		return nil, fmt.Errorf("differ: wide trial %d (seed %d): %w", i, seed, err)
	}
	tr.C = c

	if seqC {
		cycles := 5 + rng.Intn(8)
		half := 15 + rng.Intn(20)
		act := 0.2 + 0.8*rng.Float64()
		fmt.Fprintf(&spec, "; clockedbatch{lanes=%d,cycles=%d,half=%d,act=%.2f,seed=%d}", lanes, cycles, half, act, seed)
		tr.Wide, tr.Stims, err = vectors.ClockedBatch(c, vectors.ClockedConfig{
			Clock: "clk", Cycles: cycles, HalfPeriod: circuit.Tick(half), Activity: act, Seed: seed,
		}, lanes, sys)
	} else {
		vecs := 4 + rng.Intn(10)
		period := 20 + rng.Intn(40)
		act := 0.1 + 0.9*rng.Float64()
		fmt.Fprintf(&spec, "; randombatch{lanes=%d,vecs=%d,period=%d,act=%.2f,seed=%d}", lanes, vecs, period, act, seed)
		tr.Wide, tr.Stims, err = vectors.RandomBatch(c, vectors.RandomConfig{
			Vectors: vecs, Period: circuit.Tick(period), Activity: act, Seed: seed,
		}, lanes, sys)
	}
	if err != nil {
		return nil, fmt.Errorf("differ: wide trial %d (seed %d): %w", i, seed, err)
	}
	tr.Until = seq.HorizonFrom(c, tr.Wide.End)

	opts := core.Options{
		Engine:        engines[rng.Intn(len(engines))],
		LPs:           1 + rng.Intn(6),
		Partition:     diffMethods[rng.Intn(len(diffMethods))],
		PartitionSeed: rng.Int63n(1 << 30),
		System:        sys,
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
	fmt.Fprintf(&spec, "; engine=%v lps=%d partition=%v/seed=%d system=%v",
		opts.Engine, opts.LPs, opts.Partition, opts.PartitionSeed, opts.System)
	if cfg.ChaosFaults > 0 {
		tr.Plan = inject.NewPlan(uint64(seed), opts.LPs, cfg.ChaosFaults)
		fmt.Fprintf(&spec, " chaos=%d faults", cfg.ChaosFaults)
	}
	if tr.Rebalance = cfg.Rebalance; tr.Rebalance.Interval > 0 {
		fmt.Fprintf(&spec, " rebalance=every %d steps", tr.Rebalance.Interval)
	}
	tr.Opts = opts
	tr.Spec = spec.String()
	return tr, nil
}

// Check runs the wide engine once and the scalar sequential reference once
// per lane, then compares every lane's extracted waveform and final output
// values. On a mismatch the failing lane set is shrunk — the wide engine is
// re-run on repacked lane subsets — so the reported repro carries the
// smallest lane batch that still diverges.
func (tr *WideTrial) Check() error {
	badLane, detail, err := tr.checkOnce(tr.Wide, tr.Stims)
	if err != nil {
		return tr.fail("%v", err)
	}
	if badLane < 0 {
		return nil
	}
	lanes, shrunkDetail := tr.shrinkLanes(badLane)
	if shrunkDetail != "" {
		detail = shrunkDetail
	}
	return tr.fail("lane lockstep mismatch (minimal failing lane set %v of %d lanes):\n%s",
		lanes, tr.Wide.Lanes, detail)
}

// checkOnce runs one wide-vs-scalar comparison. It returns the first
// mismatching lane index (-1 if all lanes agree) and a description of the
// divergence, or an error if a run itself failed.
func (tr *WideTrial) checkOnce(ws *vectors.WideStimulus, stims []*vectors.Stimulus) (int, string, error) {
	values, wave, err := tr.runWide(ws)
	if err != nil {
		return -1, "", fmt.Errorf("wide engine run failed: %w", err)
	}
	sys := tr.Opts.System
	init := func(g circuit.GateID) logic.Value {
		return sys.Project(circuit.InitialValue(tr.C.Gates[g].Kind))
	}
	for k := 0; k < ws.Lanes; k++ {
		sres, err := seq.Run(tr.C, stims[k], tr.Until, seq.Config{System: sys})
		if err != nil {
			return -1, "", fmt.Errorf("lane %d scalar reference failed: %w", k, err)
		}
		if d := trace.Diff(sres.Waveform, wave.Lane(k, init), 5); d != "" {
			return k, fmt.Sprintf("lane %d waveform vs scalar seq:\n%s", k, d), nil
		}
		for _, out := range tr.C.Outputs {
			if g, w := values[out].Get(k), sres.Values[out].ToX01Z(); g != w {
				return k, fmt.Sprintf("lane %d final value at gate %d (%q): wide=%v scalar=%v",
					k, out, tr.C.Gates[out].Name, g, w), nil
			}
		}
	}
	return -1, "", nil
}

// runWide executes the trial's wide engine on ws: through core, or, for a
// rebalancing trial, on the sync engine directly.
func (tr *WideTrial) runWide(ws *vectors.WideStimulus) ([]logic.Word, trace.WideWaveform, error) {
	opts := tr.Opts
	if tr.Rebalance.Interval > 0 {
		part, err := partition.New(opts.Partition, tr.C, opts.LPs, partition.Options{Seed: opts.PartitionSeed})
		if err != nil {
			return nil, nil, err
		}
		res, err := simsync.RunWide(tr.C, ws, tr.Until, simsync.WideConfig{
			Partition: part, System: opts.System, Rebalance: tr.Rebalance,
		})
		if err != nil {
			return nil, nil, err
		}
		return res.Values, res.Waveform, nil
	}
	if tr.Plan != nil {
		opts.Chaos = inject.NewHook(uint64(tr.Seed), tr.Plan)
	}
	rep, err := core.SimulateWide(tr.C, ws, tr.Until, opts)
	if opts.Chaos != nil {
		// Checked before the engine error: a violation is the cause.
		if v := opts.Chaos.Violations(); len(v) > 0 {
			return nil, nil, fmt.Errorf("chaos transport protocol violation: %s", v[0])
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return rep.Values, trace.WideWaveform(rep.Waveform), nil
}

// shrinkLanes minimizes the failing lane set: first the single known-bad
// lane alone, then binary halving of the full set. Every probe repacks the
// chosen scalar stimuli and re-runs the wide engine, so the result is a
// genuine standalone repro. Returns the lane indices (into the original
// batch) of the smallest failing subset found and its divergence detail.
func (tr *WideTrial) shrinkLanes(firstBad int) ([]int, string) {
	probe := func(laneIdx []int) string {
		sub := make([]*vectors.Stimulus, len(laneIdx))
		for i, k := range laneIdx {
			sub[i] = tr.Stims[k]
		}
		ws, err := vectors.Pack(tr.C, sub, tr.Opts.System)
		if err != nil {
			return ""
		}
		bad, detail, err := tr.checkOnce(ws, sub)
		if err != nil || bad < 0 {
			return ""
		}
		return detail
	}
	// The known-bad lane alone is the smallest candidate; it usually holds.
	if d := probe([]int{firstBad}); d != "" {
		return []int{firstBad}, d
	}
	// The failure needs lane interaction (it should not — lanes are
	// independent by construction — which is itself diagnostic). Halve the
	// set a few times to bound the repro.
	cur := make([]int, tr.Wide.Lanes)
	for i := range cur {
		cur[i] = i
	}
	detail := ""
	for len(cur) > 1 {
		half := len(cur) / 2
		if d := probe(cur[:half]); d != "" {
			cur, detail = cur[:half], d
			continue
		}
		if d := probe(cur[half:]); d != "" {
			cur, detail = cur[half:], d
			continue
		}
		break
	}
	return cur, detail
}

// fail wraps a mismatch with everything needed to reproduce the trial.
func (tr *WideTrial) fail(format string, argv ...any) error {
	return fmt.Errorf("wide lockstep trial %d (seed %d)\n  spec: %s\n  repro: differ.GenWideTrial(differ.WideDiffConfig{Seed: <master>}, %d) with trial seed %d\n  %s",
		tr.Index, tr.Seed, tr.Spec, tr.Index, tr.Seed, fmt.Sprintf(format, argv...))
}
