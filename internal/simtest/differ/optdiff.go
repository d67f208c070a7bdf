package differ

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/simtest/chaos"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// OptDiffConfig seeds the randomized optimizer-equivalence harness: every
// trial optimizes a generated netlist with a pass subset, runs an engine
// on the optimized circuit, and demands the primary-output waveform —
// mapped back through the remap — be bit-identical to the unoptimized
// sequential reference.
type OptDiffConfig struct {
	// Seed is the master seed; every trial derives its own seed from it.
	Seed int64
	// MaxGates bounds generated circuit size (default 300).
	MaxGates int
	// Engines limits the engines run on the optimized netlist; nil means
	// the sequential reference plus every parallel event-driven engine.
	Engines []core.Engine
}

// OptTrial is one fully-specified optimizer-equivalence check. All fields
// derive deterministically from (OptDiffConfig.Seed, Index).
type OptTrial struct {
	Index int
	Seed  int64
	Spec  string
	C     *circuit.Circuit
	// Passes is the optimizer pipeline under test (a subset of
	// opt.DefaultPasses, so the exactness contract applies).
	Passes []string
	Until  circuit.Tick
	Opts   core.Options

	// Scalar trials populate Stim; wide trials populate Stims/Wide and run
	// the engine's 64-lane path instead.
	Stim  *vectors.Stimulus
	Stims []*vectors.Stimulus
	Wide  *vectors.WideStimulus
}

// GenOptTrial deterministically derives optimizer trial i from the config.
func GenOptTrial(cfg OptDiffConfig, i int) (*OptTrial, error) {
	if cfg.MaxGates <= 0 {
		cfg.MaxGates = 300
	}
	engines := cfg.Engines
	if engines == nil {
		engines = append([]core.Engine{core.EngineSeq}, DiffEngines...)
	}
	seed := cfg.Seed*3_000_017 + int64(i)
	rng := rand.New(rand.NewSource(seed))
	tr := &OptTrial{Index: i, Seed: seed}

	// Pass subset: the full default pipeline half the time (the case users
	// run), otherwise a random non-empty subset in pipeline order.
	if rng.Intn(2) == 0 {
		tr.Passes = append([]string(nil), opt.DefaultPasses...)
	} else {
		for len(tr.Passes) == 0 {
			tr.Passes = tr.Passes[:0]
			for _, p := range opt.DefaultPasses {
				if rng.Intn(2) == 0 {
					tr.Passes = append(tr.Passes, p)
				}
			}
		}
	}

	var spec strings.Builder
	fmt.Fprintf(&spec, "passes=%v; ", tr.Passes)

	wide := rng.Intn(4) == 0
	if wide {
		return genOptWide(cfg, tr, rng, seed, &spec, engines)
	}

	c, stim, err := genWorkload(rng, cfg.MaxGates, seed, &spec)
	if err != nil {
		return nil, fmt.Errorf("differ: opt trial %d (seed %d): %w", i, seed, err)
	}
	tr.C, tr.Stim = c, stim
	tr.Until = seq.Horizon(c, stim)

	opts := core.Options{
		Engine:        engines[rng.Intn(len(engines))],
		LPs:           1 + rng.Intn(6),
		Partition:     diffMethods[rng.Intn(len(diffMethods))],
		PartitionSeed: rng.Int63n(1 << 30),
		System:        logic.TwoValued,
	}
	if rng.Intn(3) == 0 {
		opts.System = logic.NineValued
	}
	if opts.Engine == core.EngineHybrid {
		opts.IntraWorkers = 1 + rng.Intn(3)
	}
	// Exercise the cone-split + sweep execution mode against optimized
	// netlists too: it replaces the sampled partition method.
	if opts.Engine.Parallel() && rng.Intn(4) == 0 {
		opts.Partition = partition.MethodConeSplit
	}
	fmt.Fprintf(&spec, "; engine=%v lps=%d partition=%v/seed=%d system=%v",
		opts.Engine, opts.LPs, opts.Partition, opts.PartitionSeed, opts.System)
	tr.Opts = opts
	tr.Spec = spec.String()
	return tr, nil
}

// genOptWide fills in a wide-path trial: a lane batch on a generated
// circuit, compared lane by lane against the scalar sequential reference
// of the unoptimized netlist.
func genOptWide(cfg OptDiffConfig, tr *OptTrial, rng *rand.Rand, seed int64, spec *strings.Builder, engines []core.Engine) (*OptTrial, error) {
	sys := logic.TwoValued
	if rng.Intn(2) == 0 {
		sys = logic.FourValued
	}
	lanes := 1 + rng.Intn(logic.Lanes)

	var (
		c    *circuit.Circuit
		err  error
		seqC bool
	)
	if rng.Intn(2) == 0 {
		gates := 40 + rng.Intn(cfg.MaxGates-40)
		fmt.Fprintf(spec, "dag{gates=%d,seed=%d}", gates, seed)
		c, err = gen.RandomDAG(gen.RandomConfig{
			Gates: gates, Inputs: 8, Outputs: 6, Seed: seed, Locality: 0.6,
		})
	} else {
		gates := 40 + rng.Intn(cfg.MaxGates-40)
		fmt.Fprintf(spec, "seq{gates=%d,seed=%d}", gates, seed)
		c, err = gen.RandomSeq(gen.RandomConfig{
			Gates: gates, Inputs: 8, Outputs: 6, Seed: seed, FFRatio: 0.15,
		})
		seqC = true
	}
	if err != nil {
		return nil, fmt.Errorf("differ: opt trial %d (seed %d): %w", tr.Index, seed, err)
	}
	tr.C = c

	if seqC {
		fmt.Fprintf(spec, "; clockedbatch{lanes=%d,seed=%d}", lanes, seed)
		tr.Wide, tr.Stims, err = vectors.ClockedBatch(c, vectors.ClockedConfig{
			Clock: "clk", Cycles: 6, HalfPeriod: 20, Activity: 0.6, Seed: seed,
		}, lanes, sys)
	} else {
		fmt.Fprintf(spec, "; randombatch{lanes=%d,seed=%d}", lanes, seed)
		tr.Wide, tr.Stims, err = vectors.RandomBatch(c, vectors.RandomConfig{
			Vectors: 6, Period: 25, Activity: 0.6, Seed: seed,
		}, lanes, sys)
	}
	if err != nil {
		return nil, fmt.Errorf("differ: opt trial %d (seed %d): %w", tr.Index, seed, err)
	}
	tr.Until = seq.HorizonFrom(c, tr.Wide.End)

	tr.Opts = core.Options{
		Engine:        engines[rng.Intn(len(engines))],
		LPs:           1 + rng.Intn(4),
		Partition:     diffMethods[rng.Intn(len(diffMethods))],
		PartitionSeed: rng.Int63n(1 << 30),
		System:        sys,
	}
	if tr.Opts.Engine == core.EngineHybrid {
		tr.Opts.IntraWorkers = 1 + rng.Intn(3)
	}
	fmt.Fprintf(spec, "; wide engine=%v lps=%d partition=%v system=%v",
		tr.Opts.Engine, tr.Opts.LPs, tr.Opts.Partition, tr.Opts.System)
	tr.Spec = spec.String()
	return tr, nil
}

// Check optimizes with the trial's pass list, runs the engine on the
// optimized netlist, and compares primary-output waveforms and final
// values — through the remap — against the unoptimized sequential
// reference. On a mismatch the pass list is ddmin-shrunk (reusing the
// chaos harness's ShrinkIndices) so the report names the smallest pass
// subset that still breaks equivalence.
func (tr *OptTrial) Check() error {
	failure := tr.probe(tr.Passes)
	if failure == "" {
		return nil
	}
	idx, detail := chaos.ShrinkIndices(len(tr.Passes), failure, func(idx []int) (bool, string) {
		sub := make([]string, 0, len(idx))
		for _, i := range idx {
			sub = append(sub, tr.Passes[i])
		}
		f := tr.probe(sub)
		return f != "", f
	}, 32)
	minimal := make([]string, 0, len(idx))
	for _, i := range idx {
		minimal = append(minimal, tr.Passes[i])
	}
	if detail == "" {
		detail = failure
	}
	return tr.fail("optimizer equivalence broken (minimal failing pass subset %v of %v):\n%s",
		minimal, tr.Passes, detail)
}

// probe runs one equivalence comparison under the given pass subset and
// returns "" on success or a divergence description. The subset is passed
// as a non-nil slice so an empty probe means "no passes" (the ddmin
// baseline), not opt's nil-means-default.
func (tr *OptTrial) probe(passes []string) string {
	if passes == nil {
		passes = []string{}
	}
	res, err := opt.Optimize(tr.C, opt.Options{Passes: passes})
	if err != nil {
		return fmt.Sprintf("Optimize(%v) failed: %v", passes, err)
	}
	if tr.Wide != nil {
		return tr.probeWide(res)
	}
	ref, err := core.Simulate(tr.C, tr.Stim, tr.Until, core.Options{
		Engine: core.EngineSeq, System: tr.Opts.System,
	})
	if err != nil {
		return fmt.Sprintf("sequential reference failed: %v", err)
	}
	ostim, err := res.Remap.Stimulus(tr.Stim)
	if err != nil {
		return fmt.Sprintf("stimulus remap failed: %v", err)
	}
	rep, err := core.Simulate(res.Circuit, ostim, tr.Until, tr.Opts)
	if err != nil {
		return fmt.Sprintf("engine run on optimized netlist failed: %v", err)
	}
	if d := trace.Diff(ref.Waveform, res.Remap.WaveformBack(rep.Waveform), 5); d != "" {
		return fmt.Sprintf("primary-output waveform mismatch vs unoptimized seq:\n%s", d)
	}
	for _, po := range tr.C.Outputs {
		np, ok := res.Remap.Gate(po)
		if !ok {
			return fmt.Sprintf("primary output %d eliminated by %v", po, passes)
		}
		if ref.Values[po] != rep.Values[np] {
			return fmt.Sprintf("final value mismatch at output %d (%q): unopt=%v opt=%v",
				po, tr.C.Gates[po].Name, ref.Values[po], rep.Values[np])
		}
	}
	return ""
}

// probeWide is probe's 64-lane variant: the wide engine runs the optimized
// netlist on the packed batch; each lane must match the scalar sequential
// reference of the unoptimized netlist under that lane's stimulus.
func (tr *OptTrial) probeWide(res *opt.Result) string {
	stims := make([]*vectors.Stimulus, len(tr.Stims))
	for i, s := range tr.Stims {
		os, err := res.Remap.Stimulus(s)
		if err != nil {
			return fmt.Sprintf("lane %d stimulus remap failed: %v", i, err)
		}
		stims[i] = os
	}
	ws, err := vectors.Pack(res.Circuit, stims, tr.Opts.System)
	if err != nil {
		return fmt.Sprintf("packing remapped lanes failed: %v", err)
	}
	wrep, err := core.SimulateWide(res.Circuit, ws, tr.Until, tr.Opts)
	if err != nil {
		return fmt.Sprintf("wide engine run on optimized netlist failed: %v", err)
	}
	sys := tr.Opts.System
	init := func(g circuit.GateID) logic.Value {
		return sys.Project(circuit.InitialValue(res.Circuit.Gates[g].Kind))
	}
	for k := 0; k < ws.Lanes; k++ {
		sres, err := seq.Run(tr.C, tr.Stims[k], tr.Until, seq.Config{System: sys})
		if err != nil {
			return fmt.Sprintf("lane %d scalar reference failed: %v", k, err)
		}
		lane := res.Remap.WaveformBack(trace.WideWaveform(wrep.Waveform).Lane(k, init))
		if d := trace.Diff(sres.Waveform, lane, 5); d != "" {
			return fmt.Sprintf("lane %d waveform vs unoptimized scalar seq:\n%s", k, d)
		}
		for _, po := range tr.C.Outputs {
			np, ok := res.Remap.Gate(po)
			if !ok {
				return fmt.Sprintf("primary output %d eliminated", po)
			}
			if g, w := wrep.Values[np].Get(k), sres.Values[po].ToX01Z(); g != w {
				return fmt.Sprintf("lane %d final value at output %d (%q): wide-opt=%v scalar-unopt=%v",
					k, po, tr.C.Gates[po].Name, g, w)
			}
		}
	}
	return ""
}

// fail wraps a mismatch with everything needed to reproduce the trial.
func (tr *OptTrial) fail(format string, argv ...any) error {
	return fmt.Errorf("optimizer trial %d (seed %d)\n  spec: %s\n  repro: differ.GenOptTrial(differ.OptDiffConfig{Seed: <master>}, %d) with trial seed %d\n  %s",
		tr.Index, tr.Seed, tr.Spec, tr.Index, tr.Seed, fmt.Sprintf(format, argv...))
}
