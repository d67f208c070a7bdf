package timewarp

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/sim/supervise"
	"repro/internal/simtest"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// variants enumerates the policy combinations under test.
var variants = []struct {
	name string
	cfg  func(Config) Config
}{
	{"aggressive-incremental", func(c Config) Config { return c }},
	{"aggressive-fullcopy", func(c Config) Config { c.StateSaving = FullCopy; return c }},
	{"lazy-incremental", func(c Config) Config { c.Cancellation = Lazy; return c }},
	{"lazy-fullcopy", func(c Config) Config { c.Cancellation = Lazy; c.StateSaving = FullCopy; return c }},
	{"windowed", func(c Config) Config { c.Window = 50; return c }},
}

// TestMatchesSequentialReference is the core equivalence suite for the
// optimistic engine across every policy combination.
func TestMatchesSequentialReference(t *testing.T) {
	corpus, err := simtest.StandardCorpus(29)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range corpus {
		until := seq.Horizon(cs.C, cs.Stim)
		ref, err := seq.Run(cs.C, cs.Stim, until, seq.Config{System: logic.TwoValued})
		if err != nil {
			t.Fatalf("%s: seq: %v", cs.Name, err)
		}
		for _, v := range variants {
			for _, k := range []int{1, 2, 4} {
				p, err := partition.New(partition.MethodFM, cs.C, k, partition.Options{Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				cfg := v.cfg(Config{Partition: p, System: logic.TwoValued})
				res, err := Run(cs.C, cs.Stim, until, cfg)
				if err != nil {
					t.Fatalf("%s %s k=%d: %v", cs.Name, v.name, k, err)
				}
				if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
					t.Fatalf("%s %s k=%d waveform mismatch:\n%s", cs.Name, v.name, k, d)
				}
				for g := range ref.Values {
					if ref.Values[g] != res.Values[g] {
						t.Fatalf("%s %s k=%d: value mismatch at gate %d: %v vs %v",
							cs.Name, v.name, k, g, ref.Values[g], res.Values[g])
					}
				}
			}
		}
	}
}

// TestRandomPartitionsStress drives maximum cross-LP traffic and therefore
// maximum rollback pressure.
func TestRandomPartitionsStress(t *testing.T) {
	c, err := gen.RandomSeq(gen.RandomConfig{Gates: 300, Inputs: 10, Outputs: 6, Seed: 31, FFRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Clocked(c, vectors.ClockedConfig{Clock: "clk", Cycles: 20, HalfPeriod: 25, Activity: 0.7, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	ref, err := seq.Run(c, stim, until, seq.Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		p, err := partition.New(partition.MethodRandom, c, 5, partition.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			cfg := v.cfg(Config{Partition: p, System: logic.TwoValued})
			res, err := Run(c, stim, until, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}
			if d := trace.Diff(ref.Waveform, res.Waveform, 3); d != "" {
				t.Fatalf("seed %d %s mismatch:\n%s", seed, v.name, d)
			}
		}
	}
}

// TestRepeatedRunsDeterministicResult checks that despite nondeterministic
// execution interleavings (rollback counts vary run to run), the committed
// result never does.
func TestRepeatedRunsDeterministicResult(t *testing.T) {
	c, err := gen.ArrayMultiplier(5, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 15, Period: 40, Activity: 0.8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	p, err := partition.New(partition.MethodRandom, c, 4, partition.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for i := 0; i < 5; i++ {
		res, err := Run(c, stim, until, Config{Partition: p, System: logic.TwoValued})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if d := trace.Diff(first.Waveform, res.Waveform, 3); d != "" {
			t.Fatalf("run %d produced different committed waveform:\n%s", i, d)
		}
	}
}

func TestStatsAndStateSavingVolume(t *testing.T) {
	c, err := gen.ArrayMultiplier(5, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 15, Period: 40, Activity: 0.8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	p, err := partition.New(partition.MethodFM, c, 4, partition.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Run(c, stim, until, Config{Partition: p, System: logic.TwoValued, StateSaving: Incremental})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(c, stim, until, Config{Partition: p, System: logic.TwoValued, StateSaving: FullCopy})
	if err != nil {
		t.Fatal(err)
	}
	ti, tf := inc.Stats.Total(), full.Stats.Total()
	if ti.Evaluations == 0 || tf.Evaluations == 0 {
		t.Fatal("no work recorded")
	}
	if ti.StateSavedWords == 0 || tf.StateSavedWords == 0 {
		t.Fatal("no state saving recorded")
	}
	// The paper: incremental state saving is crucial — full copies move
	// far more data. This is structural (full copies scale with LP state
	// size, undo logs with change volume), so assert a big gap.
	if tf.StateSavedWords < 3*ti.StateSavedWords {
		t.Fatalf("full-copy volume (%d words) not clearly above incremental (%d words)",
			tf.StateSavedWords, ti.StateSavedWords)
	}
	if inc.Stats.GVTRounds == 0 {
		t.Log("note: run finished before the first GVT round")
	}
	if inc.GVT == 0 {
		t.Fatal("final GVT not reported")
	}
}

func TestWindowLimitsOptimism(t *testing.T) {
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 400, Inputs: 10, Outputs: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 30, Period: 30, Activity: 0.6, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	ref, err := seq.Run(c, stim, until, seq.Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(partition.MethodFM, c, 4, partition.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, stim, until, Config{Partition: p, System: logic.TwoValued, Window: 20})
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(ref.Waveform, res.Waveform, 3); d != "" {
		t.Fatalf("windowed mismatch:\n%s", d)
	}
}

func TestMaxEventsAborts(t *testing.T) {
	c, err := gen.ArrayMultiplier(6, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 40, Period: 40, Activity: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := partition.New(partition.MethodContiguous, c, 4, partition.Options{})
	_, err = Run(c, stim, seq.Horizon(c, stim), Config{
		Partition: p, System: logic.TwoValued, MaxEvents: 100,
	})
	var se *supervise.SimError
	if !errors.As(err, &se) || se.Kind != supervise.KindEventLimit || se.LP < 0 || se.ModeledTime == 0 {
		t.Fatalf("Run = %v, want an event-limit SimError naming the LP and the step time", err)
	}
}

func TestConfigValidation(t *testing.T) {
	c, _ := gen.RippleAdder(2, gen.Unit)
	stim, _ := vectors.Random(c, vectors.RandomConfig{Vectors: 1, Period: 5, Activity: 1, Seed: 0})
	if _, err := Run(c, stim, 10, Config{}); err == nil {
		t.Fatal("missing partition accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	if Aggressive.String() != "aggressive" || Lazy.String() != "lazy" {
		t.Fatal("cancellation names wrong")
	}
	if Incremental.String() != "incremental" || FullCopy.String() != "full-copy" {
		t.Fatal("state saving names wrong")
	}
	if Cancellation(9).String() != "Cancellation(9)" || StateSaving(9).String() != "StateSaving(9)" {
		t.Fatal("unknown policy names wrong")
	}
}
