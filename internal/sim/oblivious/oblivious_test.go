package oblivious

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sim/seq"
	"repro/internal/vectors"
)

// settleMatch runs both engines and compares the settled state at the end.
func settleMatch(t *testing.T, c *circuit.Circuit, stim *vectors.Stimulus, workers int) (*Result, *seq.Result) {
	t.Helper()
	ob, err := Run(c, stim, Config{System: logic.TwoValued, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := seq.Run(c, stim, seq.Horizon(c, stim), seq.Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	for g := range ref.Values {
		if ref.Values[g] != ob.Values[g] {
			t.Fatalf("gate %d (%s): oblivious %v, event-driven %v",
				g, c.Name(circuit.GateID(g)), ob.Values[g], ref.Values[g])
		}
	}
	return ob, ref
}

func TestCombinationalMatchesEventDriven(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c, err := gen.ArrayMultiplier(5, gen.Unit)
		if err != nil {
			t.Fatal(err)
		}
		stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 20, Period: 100, Activity: 0.7, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		settleMatch(t, c, stim, workers)
	}
}

func TestSequentialMatchesEventDriven(t *testing.T) {
	// Half-period must exceed the settle time for cycle-based equivalence.
	for _, workers := range []int{1, 3} {
		c, err := gen.Counter(6, gen.Unit)
		if err != nil {
			t.Fatal(err)
		}
		stim, err := vectors.Clocked(c, vectors.ClockedConfig{Clock: "clk", Cycles: 25, HalfPeriod: 64, Activity: 0.5, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		settleMatch(t, c, stim, workers)

		lf, err := gen.LFSR(8, nil, gen.Unit)
		if err != nil {
			t.Fatal(err)
		}
		stimL, err := vectors.Clocked(lf, vectors.ClockedConfig{Clock: "clk", Cycles: 30, HalfPeriod: 64, Activity: 0.3, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		settleMatch(t, lf, stimL, workers)
	}
}

func TestEvaluationCountIsOblivious(t *testing.T) {
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 300, Inputs: 10, Outputs: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 9, Period: 50, Activity: 0.01, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ob, err := Run(c, stim, Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	// Every non-source gate is evaluated at every boundary regardless of
	// activity — that is the definition of oblivious simulation.
	nonSource := 0
	for g := range c.Kinds {
		if !c.Kinds[g].Source() {
			nonSource++
		}
	}
	want := uint64(nonSource * ob.Cycles)
	if got := ob.Stats.Total().Evaluations; got != want {
		t.Fatalf("evaluations = %d, want %d (gates x cycles)", got, want)
	}
}

func TestActivityCrossover(t *testing.T) {
	// The paper: at low activity oblivious wastes evaluations; at high
	// activity the event queue overhead dominates. Check the evaluation
	// ratio moves in the right direction with activity.
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 400, Inputs: 12, Outputs: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ratio := func(activity float64) float64 {
		stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 20, Period: 60, Activity: activity, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		ob, err := Run(c, stim, Config{System: logic.TwoValued})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := seq.Run(c, stim, seq.Horizon(c, stim), seq.Config{System: logic.TwoValued})
		if err != nil {
			t.Fatal(err)
		}
		return float64(ref.Counters.Evaluations) / float64(ob.Stats.Total().Evaluations)
	}
	low := ratio(0.02)
	high := ratio(1.0)
	if low >= high {
		t.Fatalf("event-driven/oblivious evaluation ratio did not grow with activity: low=%f high=%f", low, high)
	}
}

func TestLatchesRejected(t *testing.T) {
	b := circuit.NewBuilder()
	d := b.Input("d")
	en := b.Input("en")
	l := b.Gate(circuit.DLatch, "l", d, en)
	b.Output("q", l)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	stim := &vectors.Stimulus{Changes: []vectors.Change{
		{Time: 0, Input: d, Value: logic.Zero}, {Time: 0, Input: en, Value: logic.Zero},
	}}
	if _, err := Run(c, stim, Config{}); err == nil {
		t.Fatal("latch circuit accepted")
	}
}

func TestParallelAccounting(t *testing.T) {
	c, err := gen.ArrayMultiplier(6, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 5, Period: 100, Activity: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, stim, Config{System: logic.TwoValued, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.LPs) != 4 {
		t.Fatalf("worker stats = %d", len(res.Stats.LPs))
	}
	if res.Stats.Barriers == 0 || res.Stats.ModeledCritical <= 0 {
		t.Fatal("parallel accounting missing")
	}
	// Worker 0 must not have done all the work.
	if res.Stats.LPs[1].Evaluations == 0 {
		t.Fatal("work not distributed")
	}
}

func TestWaveformSampledChanges(t *testing.T) {
	c, err := gen.RippleAdder(2, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 10, Period: 50, Activity: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, stim, Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	// Waveform entries must be genuine changes on watched nets at
	// boundary times.
	last := map[circuit.GateID]logic.Value{}
	for _, s := range res.Waveform {
		if uint64(s.Time)%50 != 0 {
			t.Fatalf("sample at non-boundary time %d", s.Time)
		}
		if prev, ok := last[s.Gate]; ok && prev == s.Value {
			t.Fatalf("non-change recorded for gate %d at %d", s.Gate, s.Time)
		}
		last[s.Gate] = s.Value
	}
}
