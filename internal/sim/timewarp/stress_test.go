package timewarp

import (
	"testing"
	"time"

	"repro/internal/eventq"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// TestFrequentGVTStress runs with a pathologically small GVT interval:
// each pause-the-world round perturbs LP progress and multiplies
// rollbacks, exercising deep rollback, fossil collection, and lazy
// cancellation flushing far harder than the default pacing. Correctness
// must be untouched.
func TestFrequentGVTStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in short mode")
	}
	c, err := gen.RandomSeq(gen.RandomConfig{Gates: 400, Inputs: 10, Outputs: 8, Seed: 77, FFRatio: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Clocked(c, vectors.ClockedConfig{Clock: "clk", Cycles: 20, HalfPeriod: 30, Activity: 0.7, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	ref, err := seq.Run(c, stim, until, seq.Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(partition.MethodRandom, c, 6, partition.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, cancel := range []Cancellation{Aggressive, Lazy} {
		for _, ss := range []StateSaving{Incremental, FullCopy} {
			res, err := Run(c, stim, until, Config{
				Partition: p, System: logic.TwoValued,
				Cancellation: cancel, StateSaving: ss,
				GVTInterval: 200 * time.Microsecond,
				Window:      25,
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", cancel, ss, err)
			}
			if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
				t.Fatalf("%v/%v mismatch under GVT stress:\n%s", cancel, ss, d)
			}
		}
	}
}

// TestQueueImplementations runs Time Warp over every pending-event set,
// on plain LPs and on three-worker clusters — the rollback path calls
// ResetFloor, which only these runs exercise on the calendar queue and
// timing wheel.
func TestQueueImplementations(t *testing.T) {
	c, err := gen.ArrayMultiplier(4, gen.Fine(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 20, Period: 50, Activity: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	ref, err := seq.Run(c, stim, until, seq.Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(partition.MethodRandom, c, 4, partition.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range []eventq.Impl{eventq.ImplHeap, eventq.ImplCalendar, eventq.ImplWheel} {
		for _, workers := range []int{1, 3} {
			res, err := Run(c, stim, until, Config{
				Partition: p, System: logic.TwoValued, Queue: impl, IntraWorkers: workers,
				GVTInterval: time.Millisecond,
			})
			if err != nil {
				t.Fatalf("%v intra=%d: %v", impl, workers, err)
			}
			if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
				t.Fatalf("%v intra=%d mismatch:\n%s", impl, workers, d)
			}
			if res.Stats.Total().Rollbacks == 0 {
				t.Logf("note: %v intra=%d run had no rollbacks", impl, workers)
			}
		}
	}
}

// TestManyLPsSparseGates pushes granularity to the extreme the paper warns
// about: nearly one gate per LP.
func TestManyLPsSparseGates(t *testing.T) {
	c, err := gen.RippleAdder(8, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 10, Period: 60, Activity: 0.8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	ref, err := seq.Run(c, stim, until, seq.Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	lps := len(c.Kinds) / 2
	p, err := partition.New(partition.MethodRandom, c, lps, partition.Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, stim, until, Config{Partition: p, System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
		t.Fatalf("near-one-gate-per-LP mismatch:\n%s", d)
	}
}
