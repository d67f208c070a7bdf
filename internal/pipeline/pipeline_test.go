package pipeline_test

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim/seq"
	"repro/internal/vectors"
)

// TestPrepareStimulusAndPartition pins what the front ends used to build
// by hand: clocked stimulus exactly when the circuit has a clock input,
// the horizon from the stimulus end, lane 0 of a wide run equal to the
// scalar run's stimulus, and a partition only when LPs are asked for.
func TestPrepareStimulusAndPartition(t *testing.T) {
	for _, name := range []string{"dag200", "seq200"} {
		spec := pipeline.Spec{Circuit: name, FineDelays: 4, Seed: 7, Vectors: 9, Activity: 0.4, Period: 30}
		run, err := pipeline.Prepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		c, err := gen.ByName(name, gen.Fine(4, 7), 7)
		if err != nil {
			t.Fatal(err)
		}
		var want *vectors.Stimulus
		if _, clocked := c.ByName("clk"); clocked {
			want, err = vectors.Clocked(c, vectors.ClockedConfig{Clock: "clk", Cycles: 9, HalfPeriod: 30, Activity: 0.4, Seed: 7})
		} else {
			want, err = vectors.Random(c, vectors.RandomConfig{Vectors: 9, Period: 30, Activity: 0.4, Seed: 7})
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(run.Stim, want) || run.Until != seq.Horizon(c, want) {
			t.Errorf("%s: stimulus or horizon differs from the hand-built one", name)
		}
		if run.Part != nil || run.ShardOf != nil || run.Weights != nil || run.ConeCount != -1 {
			t.Errorf("%s: a serial spec prepared a partition", name)
		}

		spec.Lanes, spec.System = 5, logic.TwoValued
		wide, err := pipeline.Prepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wide.Stim, want) || wide.WideStim == nil || wide.WideStim.Lanes != 5 {
			t.Errorf("%s: wide run's lane 0 is not the scalar stimulus", name)
		}

		spec.Lanes, spec.LPs, spec.Shards, spec.ConeSplit, spec.Presim = 0, 4, 2, true, true
		spec.Partition = partition.MethodFM
		par, err := pipeline.Prepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		if par.Part == nil || par.Part.Blocks != 4 || len(par.ShardOf) != 4 || !par.Sweep || par.ConeCount < 1 || par.Weights == nil {
			t.Errorf("%s: cone-split presim spec prepared %+v", name, par)
		}
	}
	if _, err := pipeline.Prepare(pipeline.Spec{Circuit: "c17", Shards: 2}); err == nil {
		t.Error("shards without LPs accepted")
	}
	if _, err := pipeline.Prepare(pipeline.Spec{Circuit: "c17", OptPasses: "nosuchpass"}); err == nil {
		t.Error("unknown optimizer pass accepted")
	}
}
