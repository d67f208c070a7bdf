package core

import (
	"errors"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/adapt"
	"repro/internal/sim/ckpt"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

func TestEngineNames(t *testing.T) {
	for _, e := range Engines() {
		got, err := ParseEngine(e.String())
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if got != e {
			t.Fatalf("ParseEngine(%q) = %v", e.String(), got)
		}
	}
	if _, err := ParseEngine("frobnicator"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if Engine(99).String() != "Engine(99)" {
		t.Fatal("unknown engine string wrong")
	}
}

// TestAllEnginesAgree runs every engine through the unified API on one
// sequential circuit and requires identical waveforms (oblivious excepted:
// it is cycle-based, so only final settled values are compared).
func TestAllEnginesAgree(t *testing.T) {
	c, err := gen.RandomSeq(gen.RandomConfig{Gates: 250, Inputs: 8, Outputs: 6, Seed: 3, FFRatio: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Clocked(c, vectors.ClockedConfig{Clock: "clk", Cycles: 15, HalfPeriod: 60, Activity: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	until := Horizon(c, stim)
	base, err := Simulate(c, stim, until, Options{Engine: EngineSeq, System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	if base.Modeled <= 0 || base.Processors != 1 {
		t.Fatalf("bad baseline report: %+v", base)
	}
	for _, e := range Engines() {
		if e == EngineSeq {
			continue
		}
		rep, err := Simulate(c, stim, until, Options{
			Engine: e, LPs: 4, Partition: partition.MethodFM, System: logic.TwoValued,
		})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		for g := range base.Values {
			if base.Values[g] != rep.Values[g] {
				t.Fatalf("%v: final value mismatch at gate %d", e, g)
			}
		}
		if e != EngineOblivious {
			if d := trace.Diff(base.Waveform, rep.Waveform, 5); d != "" {
				t.Fatalf("%v waveform mismatch:\n%s", e, d)
			}
		}
		if rep.Modeled <= 0 {
			t.Fatalf("%v: no modeled time", e)
		}
		if s := rep.SpeedupOver(base, stats.CostModel{}); s <= 0 {
			t.Fatalf("%v: speedup = %f", e, s)
		}
	}
}

func TestPreSimulateProducesWeights(t *testing.T) {
	c, err := gen.ArrayMultiplier(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 10, Period: 50, Activity: 0.6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := PreSimulate(c, stim, Horizon(c, stim), logic.TwoValued)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != c.NumGates() {
		t.Fatalf("weights cover %d of %d gates", len(w), c.NumGates())
	}
	// Weighted partitioning must accept them.
	if _, err := Simulate(c, stim, Horizon(c, stim), Options{
		Engine: EngineSync, LPs: 4, Partition: partition.MethodFM,
		Weights: w, System: logic.TwoValued,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c, err := gen.RippleAdder(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 5, Period: 30, Activity: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(c, stim, Horizon(c, stim), Options{Engine: EngineSync})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Processors != 4 {
		t.Fatalf("default LPs = %d, want 4", rep.Processors)
	}
}

func TestBadPartitionMethodPropagates(t *testing.T) {
	c, _ := gen.RippleAdder(2, gen.Unit)
	stim, _ := vectors.Random(c, vectors.RandomConfig{Vectors: 1, Period: 5, Activity: 1, Seed: 0})
	if _, err := Simulate(c, stim, 50, Options{
		Engine: EngineSync, Partition: partition.Method(99),
	}); err == nil {
		t.Fatal("invalid partition method accepted")
	}
}

// TestInvalidStimulusRejectedByEveryEngine: a change on a non-input gate,
// or on a gate id beyond the circuit, would index the value planes
// unchecked if it reached an engine body. Both planes validate in their
// entry path, so every engine returns an error instead of panicking.
func TestInvalidStimulusRejectedByEveryEngine(t *testing.T) {
	c, err := gen.RippleAdder(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []circuit.GateID{c.Outputs[0], circuit.GateID(len(c.Gates))} {
		bad := &vectors.Stimulus{End: 10, Changes: []vectors.Change{{Time: 0, Input: g, Value: logic.One}}}
		wbad := &vectors.WideStimulus{End: 10, Lanes: 1,
			Changes: []vectors.WideChange{{Time: 0, Input: g, Value: logic.Splat(logic.One)}}}
		for _, e := range Engines() {
			opts := Options{Engine: e, LPs: 2, System: logic.TwoValued}
			if _, err := Simulate(c, bad, 10, opts); err == nil {
				t.Errorf("%v: scalar stimulus driving gate %d accepted", e, g)
			} else if errors.As(err, new(*SimError)) {
				t.Errorf("%v: scalar stimulus driving gate %d reached the engine: %v", e, g, err)
			}
			if _, err := SimulateWide(c, wbad, 10, opts); err == nil {
				t.Errorf("%v: wide stimulus driving gate %d accepted", e, g)
			} else if errors.As(err, new(*SimError)) {
				t.Errorf("%v: wide stimulus driving gate %d reached the engine: %v", e, g, err)
			}
		}
	}
}

// TestWideExclusions pins the wide exclusions that remain, all of which
// need a wide checkpoint format: core is the one site that rejects them.
func TestWideExclusions(t *testing.T) {
	c, err := gen.RippleAdder(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := vectors.RandomBatch(c, vectors.RandomConfig{Vectors: 3, Period: 20, Activity: 0.5, Seed: 1}, 8, logic.TwoValued)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"restore":    {Restore: &ckpt.State{}},
		"checkpoint": {CheckpointEvery: 10, CheckpointDir: t.TempDir()},
		"adapt":      {Adapt: &adapt.Spec{}},
	} {
		opts.Engine = EngineCMB
		if _, err := SimulateWide(c, ws, WideHorizon(c, ws), opts); err == nil {
			t.Errorf("wide run with %s accepted", name)
		}
	}
}
