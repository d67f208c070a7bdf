// Package pipeline is the set-up path of a simulation run, written once:
// load the netlist, optimize it, generate the stimulus, fix the horizon,
// partition the gates and group the LPs onto shards. The paper's
// comparison only means something on identical circuits, vectors and
// partitions, so every front end — parsim on either value plane, the
// distributed hub and its single-process fallback, partstat — obtains its
// workload from Prepare, and a fleet's workers receive the same Prepared
// object over the wire (see Encode) instead of deriving their own.
package pipeline

import (
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/vectors"
)

// Spec names a workload: where the netlist comes from, how it is
// transformed, what drives it and how it is divided. Identical specs
// prepare identical runs.
type Spec struct {
	// Bench reads the circuit from an ISCAS .bench file; empty uses the
	// Circuit generator name (gen.ByName: c17, ripple8, mul16, ...).
	Bench   string
	Circuit string
	// FineDelays assigns random delays in [1,N] to a generated circuit
	// (0 = unit delays).
	FineDelays uint64
	// Seed feeds delay assignment and stimulus generation.
	Seed int64

	// Opt runs the netlist optimizer before anything is derived from the
	// circuit; OptPasses names its passes and implies Opt ("" = the
	// default pipeline).
	Opt       bool
	OptPasses string
	// Presim weights the partitioner with a sequential profiling run.
	Presim bool

	// Vectors, Activity and Period parameterize the stimulus: clocked
	// when the circuit has a clock input, random vectors otherwise.
	Vectors  int
	Activity float64
	Period   uint64
	// Until is the horizon; 0 derives it from the stimulus end plus the
	// circuit's settling margin.
	Until uint64
	// System is the logic value system of the run (0 = nine-valued); it
	// shapes the pre-simulation profile and packs the wide stimulus.
	System logic.System
	// Lanes > 0 prepares a wide run: that many independently seeded
	// stimulus batches packed into lanes, lane 0 being the scalar one.
	Lanes int

	// LPs is the block count of the gate partition; 0 prepares none (the
	// serial engines). Partition and PartitionSeed select the heuristic;
	// partition.MethodConeSplit packs whole combinational cones, and the
	// engines then evaluate each in one oblivious sweep.
	LPs           int
	Partition     partition.Method
	PartitionSeed int64
	// Shards > 0 also groups the LPs onto that many worker shards.
	Shards int
}

// Prepared is a workload ready to simulate. Every field is read-only once
// Prepare returns; engines, the hub and workers share it freely.
type Prepared struct {
	// Spec is what the run was prepared from (zero on a decoded run: the
	// wire carries results, not the recipe).
	Spec Spec

	Circuit *circuit.Circuit
	// Fingerprint is the circuit's ckpt.Fingerprint as Decode verified it
	// against the sealed one; empty on a run Prepare built.
	Fingerprint string
	// OptStats reports the optimizer's work; nil when it did not run.
	OptStats *opt.Stats
	// Stim drives the scalar plane; WideStim (Spec.Lanes > 0) the wide.
	Stim     *vectors.Stimulus
	WideStim *vectors.WideStimulus
	Until    circuit.Tick

	// Weights are the pre-simulation load estimates (nil without Presim).
	Weights partition.Weights
	// Part is the gate → LP assignment (nil when Spec.LPs == 0).
	Part *partition.Partition
	// ShardOf maps LP → shard (nil when Spec.Shards == 0).
	ShardOf []int
}

// Prepare runs the set-up path for spec.
func Prepare(spec Spec) (*Prepared, error) {
	c, err := Load(spec)
	if err != nil {
		return nil, err
	}
	// The optimizer runs before stimulus generation: primary inputs and
	// outputs always survive with their names, so stimuli and VCD watch
	// lists built against the optimized netlist resolve identically. The
	// loaded netlist is referenced from nowhere else meanwhile, so the
	// collector can drop it as soon as the optimizer has copied it.
	var ostats *opt.Stats
	if spec.Opt || spec.OptPasses != "" {
		passes, err := opt.ParsePasses(spec.OptPasses)
		if err != nil {
			return nil, err
		}
		res, err := opt.Optimize(c, opt.Options{Passes: passes})
		if err != nil {
			return nil, err
		}
		c, ostats = res.Circuit, &res.Stats
	}
	p := &Prepared{Spec: spec, Circuit: c, OptStats: ostats}

	if err := p.stimulate(); err != nil {
		return nil, err
	}
	if p.Until = circuit.Tick(spec.Until); p.Until == 0 {
		end := p.Stim.End
		if p.WideStim != nil {
			end = p.WideStim.End
		}
		p.Until = seq.HorizonFrom(c, end)
	}

	if spec.Presim {
		if p.Weights, err = PreSimulate(c, p.Stim, p.Until, spec.System); err != nil {
			return nil, err
		}
	}
	if spec.LPs > 0 {
		p.Part, err = partition.New(spec.Partition, c, spec.LPs, partition.Options{
			Weights: p.Weights, Seed: spec.PartitionSeed,
		})
		if err != nil {
			return nil, err
		}
	}
	if spec.Shards > 0 {
		if p.Part == nil {
			return nil, fmt.Errorf("pipeline: %d shards need a partition (LPs = 0)", spec.Shards)
		}
		p.ShardOf = p.Part.Group(spec.Shards, partition.WeightsUniform(c))
	}
	return p, nil
}

// Load resolves the spec's circuit source: the .bench file when named,
// the generator otherwise.
func Load(spec Spec) (*circuit.Circuit, error) {
	if spec.Bench != "" {
		f, err := os.Open(spec.Bench)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return bench.Read(f)
	}
	delays := gen.Unit
	if spec.FineDelays > 0 {
		delays = gen.Fine(circuit.Tick(spec.FineDelays), spec.Seed)
	}
	return gen.ByName(spec.Circuit, delays, spec.Seed)
}

// stimulate generates the run's stimulus on the prepared circuit: clocked
// sequences when it has a clock input, random vectors otherwise. A wide
// run generates its lanes once and takes lane 0 as the scalar stimulus.
func (p *Prepared) stimulate() error {
	s, c := &p.Spec, p.Circuit
	period := circuit.Tick(s.Period)
	random := vectors.RandomConfig{Vectors: s.Vectors, Period: period, Activity: s.Activity, Seed: s.Seed}
	clocked := vectors.ClockedConfig{Cycles: s.Vectors, HalfPeriod: period, Activity: s.Activity, Seed: s.Seed}
	for _, clk := range []string{"clk", "CLK", "__CLK"} {
		if id, ok := c.ByName(clk); ok && c.Kinds[id] == circuit.Input {
			clocked.Clock = clk
			break
		}
	}

	var err error
	if s.Lanes > 0 {
		sys := s.System
		if sys == 0 {
			sys = logic.FourValued
		}
		var lanes []*vectors.Stimulus
		if clocked.Clock != "" {
			p.WideStim, lanes, err = vectors.ClockedBatch(c, clocked, s.Lanes, sys)
		} else {
			p.WideStim, lanes, err = vectors.RandomBatch(c, random, s.Lanes, sys)
		}
		if err == nil {
			p.Stim = lanes[0]
		}
		return err
	}
	if clocked.Clock != "" {
		p.Stim, err = vectors.Clocked(c, clocked)
	} else {
		p.Stim, err = vectors.Random(c, random)
	}
	return err
}

// PreSimulate runs the paper's pre-simulation workload estimation: a
// sequential profiling run over the stimulus, converted into partitioner
// weights.
func PreSimulate(c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick, sys logic.System) (partition.Weights, error) {
	res, err := seq.Run(c, stim, until, seq.Config{System: sys, Profile: true})
	if err != nil {
		return nil, err
	}
	return partition.WeightsFromProfile(res.EvalsByGate), nil
}
