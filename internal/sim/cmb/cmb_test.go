package cmb

import (
	"errors"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/sim/supervise"
	"repro/internal/simtest"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/trace"
	"repro/internal/vectors"
)

var allModes = []Mode{NullEager, NullDemand, DeadlockRecovery}

// TestMatchesSequentialReference is the core equivalence suite for the
// conservative engine, across all three protocol variants.
func TestMatchesSequentialReference(t *testing.T) {
	corpus, err := simtest.StandardCorpus(13)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range corpus {
		until := seq.Horizon(cs.C, cs.Stim)
		ref, err := seq.Run(cs.C, cs.Stim, until, seq.Config{System: logic.TwoValued})
		if err != nil {
			t.Fatalf("%s: seq: %v", cs.Name, err)
		}
		ks := []int{1, 2, 4, 7}
		if testing.Short() {
			ks = []int{4}
		}
		for _, mode := range allModes {
			for _, k := range ks {
				p, err := partition.New(partition.MethodFM, cs.C, k, partition.Options{Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(cs.C, cs.Stim, until, Config{
					Partition: p,
					Mode:      mode,
					System:    logic.TwoValued,
				})
				if err != nil {
					t.Fatalf("%s %v k=%d: %v", cs.Name, mode, k, err)
				}
				if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
					t.Fatalf("%s %v k=%d waveform mismatch:\n%s", cs.Name, mode, k, d)
				}
				for g := range ref.Values {
					if ref.Values[g] != res.Values[g] {
						t.Fatalf("%s %v k=%d: value mismatch at gate %d", cs.Name, mode, k, g)
					}
				}
			}
		}
	}
}

func TestRandomPartitionsStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in short mode")
	}
	// Random partitions maximize cut links and cyclic LP dependencies —
	// the stress case for null-message deadlock avoidance.
	c, err := gen.RandomSeq(gen.RandomConfig{Gates: 300, Inputs: 10, Outputs: 6, Seed: 21, FFRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Clocked(c, vectors.ClockedConfig{Clock: "clk", Cycles: 20, HalfPeriod: 25, Activity: 0.7, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	ref, err := seq.Run(c, stim, until, seq.Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 4; seed++ {
		p, err := partition.New(partition.MethodRandom, c, 6, partition.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range allModes {
			res, err := Run(c, stim, until, Config{Partition: p, Mode: mode, System: logic.TwoValued})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, mode, err)
			}
			if d := trace.Diff(ref.Waveform, res.Waveform, 3); d != "" {
				t.Fatalf("seed %d %v mismatch:\n%s", seed, mode, d)
			}
		}
	}
}

// detectRounds runs cs in DeadlockRecovery mode on k LPs with the watchdog
// armed, checks the waveform against ref, and returns the permit rounds
// the run took. A hang surfaces as the watchdog's SimError, so a lost
// permit fails the test in seconds instead of timing it out.
func detectRounds(t *testing.T, cs simtest.Corpus, ref *seq.Result, k int, hook *inject.Hook) uint64 {
	t.Helper()
	p, err := partition.New(partition.MethodFM, cs.C, k, partition.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cs.C, cs.Stim, seq.Horizon(cs.C, cs.Stim), Config{
		Partition: p, Mode: DeadlockRecovery, System: logic.TwoValued,
		HangTimeout: 10 * time.Second, Chaos: hook,
	})
	if err != nil {
		t.Fatalf("%s k=%d: %v", cs.Name, k, err)
	}
	if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
		t.Fatalf("%s k=%d waveform mismatch:\n%s", cs.Name, k, d)
	}
	return res.Stats.GVTRounds
}

// seqRefs pairs the standard corpus with its sequential reference runs.
func seqRefs(t *testing.T) ([]simtest.Corpus, []*seq.Result) {
	t.Helper()
	corpus, err := simtest.StandardCorpus(13)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*seq.Result, len(corpus))
	for i, cs := range corpus {
		if refs[i], err = seq.Run(cs.C, cs.Stim, seq.Horizon(cs.C, cs.Stim), seq.Config{System: logic.TwoValued}); err != nil {
			t.Fatalf("%s: seq: %v", cs.Name, err)
		}
	}
	return corpus, refs
}

// TestDetectRoundsAreExact: a permit is granted only at true quiescence,
// so each round releases exactly one global timestep and the round count
// is a function of circuit and stimulus alone — the sequential engine's
// step count less the time-zero settle — whatever the LP count or the
// scheduling. A redundant round means a permit was granted early.
func TestDetectRoundsAreExact(t *testing.T) {
	reps := 20
	if testing.Short() {
		reps = 3
	}
	corpus, refs := seqRefs(t)
	for i, cs := range corpus {
		want := refs[i].Counters.Steps - 1
		for _, k := range []int{1, 2, 4, 7} {
			for r := 0; r < reps; r++ {
				if got := detectRounds(t, cs, refs[i], k, nil); got != want {
					t.Fatalf("%s k=%d run %d: %d permit rounds, want %d (seq steps - 1)", cs.Name, k, r, got, want)
				}
			}
		}
	}
}

// TestDeadlockRecoveryNeverHangs is the statistical half of the lost-
// permit regression: the polling coordinator this replaced hung about one
// run in two hundred at k=7.
func TestDeadlockRecoveryNeverHangs(t *testing.T) {
	runs := 306
	if testing.Short() {
		runs = 45
	}
	corpus, refs := seqRefs(t)
	for r := 0; r < runs; r++ {
		i := r % len(corpus)
		detectRounds(t, corpus[i], refs[i], 7, nil)
	}
}

// TestWakeStallHoldsNextPermit is the deterministic half: LP 0 stalls at
// the wake boundary — holding the permit it drained, still counted as
// blocked — while its siblings finish the round and park again. The
// siblings then see every LP blocked; only the unhandled permit in the
// transit count keeps the last of them from granting the next round over
// LP 0's stale next-event time.
func TestWakeStallHoldsNextPermit(t *testing.T) {
	corpus, refs := seqRefs(t)
	for i, cs := range corpus {
		var plan inject.Plan
		for wake := uint64(0); wake < 48; wake++ {
			plan = append(plan, inject.Fault{Op: inject.OpStall, LP: 0, Phase: inject.PhaseWake, Seq: wake, N: 100})
		}
		hook := inject.NewHook(1, plan)
		want := refs[i].Counters.Steps - 1
		if got := detectRounds(t, cs, refs[i], 4, hook); got != want {
			t.Fatalf("%s: %d permit rounds, want %d: a permit was granted around an unhandled one", cs.Name, got, want)
		}
		if len(hook.Fired()) == 0 {
			t.Fatalf("%s: no wake stall fired", cs.Name)
		}
		if v := hook.Violations(); len(v) > 0 {
			t.Fatalf("%s: %v", cs.Name, v)
		}
	}
}

func TestNullMessageAccounting(t *testing.T) {
	c, err := gen.ArrayMultiplier(5, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 12, Period: 50, Activity: 0.6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	p, err := partition.New(partition.MethodFM, c, 4, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	eager, err := Run(c, stim, until, Config{Partition: p, Mode: NullEager, System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	te := eager.Stats.Total()
	if te.NullsSent == 0 {
		t.Fatal("eager mode sent no null messages")
	}
	if te.MessagesSent != te.MessagesRecv {
		t.Fatalf("message pairing broken: %d vs %d", te.MessagesSent, te.MessagesRecv)
	}

	detect, err := Run(c, stim, until, Config{Partition: p, Mode: DeadlockRecovery, System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	td := detect.Stats.Total()
	if td.NullsSent != 0 {
		t.Fatal("deadlock-recovery mode sent null messages")
	}
	if td.Evaluations == 0 {
		t.Fatal("no work recorded")
	}
}

func TestDemandSendsFewerNulls(t *testing.T) {
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 500, Inputs: 12, Outputs: 8, Seed: 4, Locality: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Low activity: long idle stretches are where eager nulls pile up.
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 40, Period: 60, Activity: 0.05, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	p, err := partition.New(partition.MethodFM, c, 4, partition.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	eager, err := Run(c, stim, until, Config{Partition: p, Mode: NullEager, System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	demand, err := Run(c, stim, until, Config{Partition: p, Mode: NullDemand, System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	en := eager.Stats.Total().NullsSent
	dn := demand.Stats.Total().NullsSent
	t.Logf("nulls: eager=%d demand=%d", en, dn)
	if dn > 3*en+100 {
		t.Fatalf("demand nulls (%d) wildly exceed eager (%d)", dn, en)
	}
}

func TestZeroDelayRejected(t *testing.T) {
	b := circuit.NewBuilder()
	a := b.Input("a")
	b.GateDelay(circuit.Not, "n", 0, a)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := partition.New(partition.MethodContiguous, c, 2, partition.Options{})
	stim := &vectors.Stimulus{Changes: []vectors.Change{{Time: 0, Input: a, Value: logic.Zero}}}
	if _, err := Run(c, stim, 10, Config{Partition: p}); err == nil {
		t.Fatal("zero-delay circuit accepted (lookahead would be zero)")
	}
}

func TestMissingPartitionRejected(t *testing.T) {
	c, _ := gen.RippleAdder(2, gen.Unit)
	stim, _ := vectors.Random(c, vectors.RandomConfig{Vectors: 1, Period: 5, Activity: 1, Seed: 0})
	if _, err := Run(c, stim, 10, Config{}); err == nil {
		t.Fatal("missing partition accepted")
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
	for _, mode := range allModes {
		_, err := Run(c, stim, seq.Horizon(c, stim), Config{
			Partition: p, Mode: mode, System: logic.TwoValued, MaxEvents: 100,
		})
		var se *supervise.SimError
		if !errors.As(err, &se) || se.Kind != supervise.KindEventLimit || se.LP < 0 || se.ModeledTime == 0 {
			t.Fatalf("%v: Run = %v, want an event-limit SimError naming the LP and the step time", mode, err)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if NullEager.String() != "null-eager" || NullDemand.String() != "null-demand" ||
		DeadlockRecovery.String() != "deadlock-recovery" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode name wrong")
	}
}

func TestLookaheadExploitsFineDelays(t *testing.T) {
	// With larger gate delays the lookahead grows and fewer nulls are
	// needed per unit of simulated time.
	mkRun := func(spec gen.DelaySpec) uint64 {
		c, err := gen.RandomDAG(gen.RandomConfig{Gates: 300, Inputs: 8, Outputs: 6, Seed: 9, Delays: spec})
		if err != nil {
			t.Fatal(err)
		}
		stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 20, Period: 80, Activity: 0.5, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		p, err := partition.New(partition.MethodFM, c, 4, partition.Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, stim, seq.Horizon(c, stim), Config{Partition: p, Mode: NullEager, System: logic.TwoValued})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Total().NullsSent
	}
	unit := mkRun(gen.Unit)
	if unit == 0 {
		t.Skip("no nulls generated")
	}
}
