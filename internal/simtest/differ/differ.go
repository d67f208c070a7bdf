// Package differ is the cross-engine differential harness: randomized
// circuit x stimulus x engine x partition x LP-count trials, each checked
// for waveform and final-value equality against the sequential reference.
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
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/sim/timewarp"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// Trials are a pure function of (config seed, trial index), so any
// failure is reproducible from the two integers in its error message; the
// message also carries the full generated spec so a failing case can be
// reconstructed as a standalone test without rerunning the harness.

// DiffConfig seeds the randomized differential harness.
type DiffConfig struct {
	// Seed is the master seed; every trial derives its own seed from it.
	Seed int64
	// MaxGates bounds generated circuit size (default 400).
	MaxGates int
	// Engines limits the engines exercised; nil means every parallel
	// event-driven engine (sync, cmb variants, timewarp variants, hybrid).
	Engines []core.Engine
}

// DiffEngines is the default engine set: every parallel event-driven
// engine, which must reproduce the sequential reference waveform exactly.
// (The oblivious engine is cycle-based — it settles per boundary rather
// than reproducing transients — so its equivalence suites compare settled
// values, not waveforms, and live elsewhere.)
var DiffEngines = []core.Engine{
	core.EngineSync,
	core.EngineCMB, core.EngineCMBDemand, core.EngineCMBDetect,
	core.EngineTimeWarp, core.EngineTimeWarpLazy,
	core.EngineHybrid,
}

// diffMethods are the partition heuristics the harness samples.
// MethodAnneal is excluded: its move budget makes trial cost dominated by
// partitioning rather than simulation.
var diffMethods = []partition.Method{
	partition.MethodRandom, partition.MethodContiguous, partition.MethodStrings,
	partition.MethodCones, partition.MethodLevels, partition.MethodKL,
	partition.MethodFM, partition.MethodMultilevel,
}

// Trial is one fully-specified differential check. All fields are derived
// deterministically from (DiffConfig.Seed, Index).
type Trial struct {
	Index int
	Seed  int64
	// Spec describes how the circuit and stimulus were generated,
	// precisely enough to reconstruct them by hand.
	Spec string
	C    *circuit.Circuit
	Stim *vectors.Stimulus
	// Until is the simulation horizon.
	Until circuit.Tick
	// Opts is the engine configuration under test.
	Opts core.Options
}

// GenTrial deterministically derives trial i from the config.
func GenTrial(cfg DiffConfig, i int) (*Trial, error) {
	if cfg.MaxGates <= 0 {
		cfg.MaxGates = 400
	}
	engines := cfg.Engines
	if engines == nil {
		engines = DiffEngines
	}
	seed := cfg.Seed*1_000_003 + int64(i)
	rng := rand.New(rand.NewSource(seed))
	tr := &Trial{Index: i, Seed: seed}

	var spec strings.Builder
	c, stim, err := genWorkload(rng, cfg.MaxGates, seed, &spec)
	if err != nil {
		return nil, fmt.Errorf("differ: trial %d (seed %d): %w", i, seed, err)
	}
	tr.C, tr.Stim = c, stim
	tr.Until = seq.Horizon(c, stim)

	opts := core.Options{
		Engine:        engines[rng.Intn(len(engines))],
		LPs:           1 + rng.Intn(8),
		Partition:     diffMethods[rng.Intn(len(diffMethods))],
		PartitionSeed: rng.Int63n(1 << 30),
		System:        logic.TwoValued,
	}
	if rng.Intn(4) == 0 {
		opts.System = logic.NineValued
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
	if opts.StateSaving == timewarp.FullCopy {
		spec.WriteString(" statesaving=full-copy")
	}
	if opts.Window > 0 {
		fmt.Fprintf(&spec, " window=%d", opts.Window)
	}
	if opts.Engine == core.EngineHybrid {
		fmt.Fprintf(&spec, " intraworkers=%d", opts.IntraWorkers)
	}
	tr.Opts = opts
	tr.Spec = spec.String()
	return tr, nil
}

// genWorkload picks a circuit family and a stimulus, recording the
// generation parameters in spec.
func genWorkload(rng *rand.Rand, maxGates int, seed int64, spec *strings.Builder) (*circuit.Circuit, *vectors.Stimulus, error) {
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
		gates := 50 + rng.Intn(maxGates-50)
		loc := rng.Float64()
		fmt.Fprintf(spec, "dag{gates=%d,in=10,out=8,seed=%d,loc=%.2f} delays=%s", gates, seed, loc, delayName)
		c, err = gen.RandomDAG(gen.RandomConfig{
			Gates: gates, Inputs: 10, Outputs: 8, Seed: seed, Locality: loc, Delays: delays,
		})
	case 3:
		gates := 50 + rng.Intn(maxGates-50)
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

	var stim *vectors.Stimulus
	if seqC {
		cycles := 8 + rng.Intn(15)
		half := 20 + rng.Intn(30)
		act := 0.2 + 0.8*rng.Float64()
		fmt.Fprintf(spec, "; clocked{cycles=%d,half=%d,act=%.2f,seed=%d}", cycles, half, act, seed)
		stim, err = vectors.Clocked(c, vectors.ClockedConfig{
			Clock: "clk", Cycles: cycles, HalfPeriod: circuit.Tick(half), Activity: act, Seed: seed,
		})
	} else {
		vecs := 5 + rng.Intn(20)
		period := 20 + rng.Intn(50)
		act := 0.05 + 0.95*rng.Float64()
		fmt.Fprintf(spec, "; random{vecs=%d,period=%d,act=%.2f,seed=%d}", vecs, period, act, seed)
		stim, err = vectors.Random(c, vectors.RandomConfig{
			Vectors: vecs, Period: circuit.Tick(period), Activity: act, Seed: seed,
		})
	}
	if err != nil {
		return nil, nil, err
	}
	return c, stim, nil
}

// Check runs the trial's engine and the sequential reference and compares
// waveforms and final values. A non-nil error carries a self-contained
// repro: the trial coordinates, the generation spec, and the first
// divergences.
func (tr *Trial) Check() error {
	ref, err := core.Simulate(tr.C, tr.Stim, tr.Until, core.Options{
		Engine: core.EngineSeq, System: tr.Opts.System,
	})
	if err != nil {
		return tr.fail("sequential reference failed: %v", err)
	}
	rep, err := core.Simulate(tr.C, tr.Stim, tr.Until, tr.Opts)
	if err != nil {
		return tr.fail("engine run failed: %v", err)
	}
	if d := trace.Diff(ref.Waveform, rep.Waveform, 5); d != "" {
		return tr.fail("waveform mismatch vs seq:\n%s", d)
	}
	for g := range ref.Values {
		if ref.Values[g] != rep.Values[g] {
			return tr.fail("final value mismatch at gate %d (%q): seq=%v got=%v",
				g, tr.C.Gates[g].Name, ref.Values[g], rep.Values[g])
		}
	}
	return nil
}

// fail wraps a mismatch with everything needed to reproduce the trial.
func (tr *Trial) fail(format string, argv ...any) error {
	return fmt.Errorf("differential trial %d (seed %d)\n  spec: %s\n  repro: differ.GenTrial(differ.DiffConfig{Seed: <master>}, %d) with trial seed %d\n  %s",
		tr.Index, tr.Seed, tr.Spec, tr.Index, tr.Seed, fmt.Sprintf(format, argv...))
}
