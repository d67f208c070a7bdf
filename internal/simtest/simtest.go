// Package simtest provides shared helpers for functional simulator tests:
// driving a circuit with a fixed input assignment, decoding integer-valued
// output buses, and a standard corpus of circuits for cross-engine
// equivalence testing.
package simtest

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/seq"
	"repro/internal/vectors"
)

// Assign builds a single-vector stimulus driving the named inputs to the
// given values at time zero.
func Assign(c *circuit.Circuit, values map[string]logic.Value) (*vectors.Stimulus, error) {
	s := &vectors.Stimulus{End: 0}
	seen := make(map[string]bool, len(values))
	for _, in := range c.Inputs {
		name := c.Name(in)
		v, ok := values[name]
		if !ok {
			return nil, fmt.Errorf("simtest: no value for input %q", name)
		}
		seen[name] = true
		s.Changes = append(s.Changes, vectors.Change{Time: 0, Input: in, Value: v})
	}
	for name := range values {
		if !seen[name] {
			return nil, fmt.Errorf("simtest: %q is not an input of the circuit", name)
		}
	}
	return s, nil
}

// Settle runs the sequential engine on a single-vector stimulus until the
// circuit is quiescent and returns the final values.
func Settle(c *circuit.Circuit, values map[string]logic.Value) ([]logic.Value, error) {
	stim, err := Assign(c, values)
	if err != nil {
		return nil, err
	}
	res, err := seq.Run(c, stim, seq.Horizon(c, stim), seq.Config{
		System:    logic.TwoValued,
		MaxEvents: 10_000_000,
	})
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// BusValue decodes the outputs named prefix0..prefixN (little-endian) into
// an integer. It fails if any bit is not a driven 0/1.
func BusValue(c *circuit.Circuit, values []logic.Value, prefix string, bits int) (uint64, error) {
	var out uint64
	for i := 0; i < bits; i++ {
		id, ok := c.ByName(fmt.Sprintf("%s%d", prefix, i))
		if !ok {
			return 0, fmt.Errorf("simtest: no output %s%d", prefix, i)
		}
		b, known := values[id].Bool()
		if !known {
			return 0, fmt.Errorf("simtest: output %s%d = %v not driven", prefix, i, values[id])
		}
		if b {
			out |= 1 << i
		}
	}
	return out, nil
}

// BusAssign produces input assignments for a bus prefix0..prefixN
// (little-endian) from an integer, merged into dst.
func BusAssign(dst map[string]logic.Value, prefix string, bits int, v uint64) {
	for i := 0; i < bits; i++ {
		dst[fmt.Sprintf("%s%d", prefix, i)] = logic.FromBool(v&(1<<i) != 0)
	}
}

// Corpus describes one standard test circuit paired with a stimulus
// generator, used by the cross-engine equivalence suites.
type Corpus struct {
	Name string
	C    *circuit.Circuit
	Stim *vectors.Stimulus
}

// StandardCorpus builds a diverse set of circuits and stimulus covering
// combinational and sequential logic, unit and random delays, and low and
// high activity. Every engine must reproduce the sequential engine's
// waveform on all of them.
func StandardCorpus(seed int64) ([]Corpus, error) {
	var out []Corpus
	add := func(name string, c *circuit.Circuit, err error, mk func(*circuit.Circuit) (*vectors.Stimulus, error)) error {
		if err != nil {
			return fmt.Errorf("simtest: corpus %s: %w", name, err)
		}
		stim, err := mk(c)
		if err != nil {
			return fmt.Errorf("simtest: corpus %s stimulus: %w", name, err)
		}
		out = append(out, Corpus{name, c, stim})
		return nil
	}

	rand20 := func(c *circuit.Circuit) (*vectors.Stimulus, error) {
		return vectors.Random(c, vectors.RandomConfig{Vectors: 20, Period: 40, Activity: 0.5, Seed: seed})
	}
	randHot := func(c *circuit.Circuit) (*vectors.Stimulus, error) {
		return vectors.Random(c, vectors.RandomConfig{Vectors: 30, Period: 25, Activity: 1.0, Seed: seed + 1})
	}
	clocked := func(c *circuit.Circuit) (*vectors.Stimulus, error) {
		return vectors.Clocked(c, vectors.ClockedConfig{Clock: "clk", Cycles: 25, HalfPeriod: 30, Activity: 0.6, Seed: seed + 2})
	}

	ra, err := gen.RippleAdder(8, gen.Unit)
	if err := add("ripple8-unit", ra, err, rand20); err != nil {
		return nil, err
	}
	raf, err := gen.RippleAdder(8, gen.Fine(7, seed))
	if err := add("ripple8-fine", raf, err, rand20); err != nil {
		return nil, err
	}
	cla, err := gen.CLAAdder(12, gen.Unit)
	if err := add("cla12-unit", cla, err, randHot); err != nil {
		return nil, err
	}
	mul, err := gen.ArrayMultiplier(6, gen.Fine(5, seed+3))
	if err := add("mul6-fine", mul, err, rand20); err != nil {
		return nil, err
	}
	dag, err := gen.RandomDAG(gen.RandomConfig{Gates: 300, Inputs: 12, Outputs: 8, Seed: seed + 4, Locality: 0.5})
	if err := add("dag300-unit", dag, err, randHot); err != nil {
		return nil, err
	}
	dagf, err := gen.RandomDAG(gen.RandomConfig{Gates: 200, Inputs: 10, Outputs: 6, Seed: seed + 5, Delays: gen.Fine(9, seed+5)})
	if err := add("dag200-fine", dagf, err, rand20); err != nil {
		return nil, err
	}
	lfsr, err := gen.LFSR(8, nil, gen.Unit)
	if err := add("lfsr8-unit", lfsr, err, clocked); err != nil {
		return nil, err
	}
	ctr, err := gen.Counter(6, gen.Fine(4, seed+6))
	if err := add("counter6-fine", ctr, err, clocked); err != nil {
		return nil, err
	}
	rs, err := gen.RandomSeq(gen.RandomConfig{Gates: 250, Inputs: 8, Outputs: 6, Seed: seed + 7, FFRatio: 0.15})
	if err := add("seq250-unit", rs, err, clocked); err != nil {
		return nil, err
	}
	return out, nil
}

// ShadowStates is the shadow oracle for checkpoints: the snapshots the
// sequential engine takes at every multiple of every up to until, booted
// from boot when non-nil. Every engine's own cut at one of these
// boundaries must stitch back into exactly this state.
func ShadowStates(c *circuit.Circuit, stim *vectors.Stimulus, until, every circuit.Tick, sys logic.System, boot *ckpt.State) ([]*ckpt.State, error) {
	return shadowStates(seq.Run, c, stim, until, every, sys, boot)
}

// WideShadowStates is ShadowStates on the 64-lane plane.
func WideShadowStates(c *circuit.Circuit, stim *vectors.WideStimulus, until, every circuit.Tick, sys logic.System, boot *ckpt.WideState) ([]*ckpt.WideState, error) {
	return shadowStates(seq.RunWide, c, stim, until, every, sys, boot)
}

func shadowStates[S any, V comparable](run func(*circuit.Circuit, S, circuit.Tick, seq.ConfigT[V]) (*seq.ResultT[V], error),
	c *circuit.Circuit, stim S, until, every circuit.Tick, sys logic.System, boot *ckpt.StateT[V]) ([]*ckpt.StateT[V], error) {
	var states []*ckpt.StateT[V]
	_, err := run(c, stim, until, seq.ConfigT[V]{
		System:          sys,
		CheckpointEvery: every,
		Checkpoint: func(st *ckpt.StateT[V]) error {
			states = append(states, st)
			return nil
		},
		Boot: boot,
	})
	return states, err
}
