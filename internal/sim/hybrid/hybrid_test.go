package hybrid

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/simtest"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

func TestMatchesSequentialReference(t *testing.T) {
	corpus, err := simtest.StandardCorpus(41)
	if err != nil {
		t.Fatal(err)
	}
	// A representative subset: the full matrix is covered by the timewarp
	// suite; hybrid adds the intra-cluster parallel step path.
	for _, cs := range corpus[:5] {
		until := seq.Horizon(cs.C, cs.Stim)
		ref, err := seq.Run(cs.C, cs.Stim, until, seq.Config{System: logic.TwoValued})
		if err != nil {
			t.Fatal(err)
		}
		for _, clusters := range []int{2, 3} {
			for _, workers := range []int{2, 4} {
				p, err := partition.New(partition.MethodFM, cs.C, clusters, partition.Options{Seed: 8})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(cs.C, cs.Stim, until, Config{
					Partition:    p,
					IntraWorkers: workers,
					System:       logic.TwoValued,
				})
				if err != nil {
					t.Fatalf("%s c=%d w=%d: %v", cs.Name, clusters, workers, err)
				}
				if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
					t.Fatalf("%s c=%d w=%d mismatch:\n%s", cs.Name, clusters, workers, d)
				}
				for g := range ref.Values {
					if ref.Values[g] != res.Values[g] {
						t.Fatalf("%s c=%d w=%d: value mismatch at gate %d", cs.Name, clusters, workers, g)
					}
				}
			}
		}
	}
}

func TestModeledTimeAndProcessors(t *testing.T) {
	c, err := gen.ArrayMultiplier(5, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 12, Period: 50, Activity: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(partition.MethodFM, c, 2, partition.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, stim, seq.Horizon(c, stim), Config{
		Partition:    p,
		IntraWorkers: 4,
		System:       logic.TwoValued,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalProcessors() != 8 {
		t.Fatalf("TotalProcessors = %d, want 8", res.TotalProcessors())
	}
	if res.ModeledTime() <= 0 {
		t.Fatal("no modeled time")
	}
	if len(res.IntraCritical) != 2 {
		t.Fatalf("IntraCritical clusters = %d", len(res.IntraCritical))
	}
	for i, crit := range res.IntraCritical {
		if crit <= 0 {
			t.Fatalf("cluster %d has no intra critical path", i)
		}
	}
}

// TestOneWorkerIsPlainTimeWarp pins the degenerate cluster: with one
// worker per cluster the run takes Time Warp's plain step, reports one
// processor per cluster, prices each cluster's evaluations serially, and
// still matches the sequential reference.
func TestOneWorkerIsPlainTimeWarp(t *testing.T) {
	c, err := gen.ArrayMultiplier(5, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 12, Period: 50, Activity: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	until := seq.Horizon(c, stim)
	ref, err := seq.Run(c, stim, until, seq.Config{System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	const clusters = 3
	p, err := partition.New(partition.MethodFM, c, clusters, partition.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, stim, until, Config{Partition: p, IntraWorkers: 1, System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TotalProcessors(); got != clusters {
		t.Fatalf("TotalProcessors = %d, want %d", got, clusters)
	}
	if res.IntraCritical != nil {
		t.Fatalf("one-worker clusters report an intra critical path %v", res.IntraCritical)
	}
	m := stats.DefaultCostModel()
	var worst float64
	for _, lp := range res.Stats.LPs {
		worst = max(worst, m.Busy(lp))
	}
	if want := worst + float64(res.Stats.GVTRounds)*m.GVT(clusters); res.ModeledTime() != want {
		t.Fatalf("ModeledTime = %v, want the serial pricing %v", res.ModeledTime(), want)
	}
	if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
		t.Fatalf("waveform differs from seq:\n%s", d)
	}
}

func TestConfigValidation(t *testing.T) {
	c, _ := gen.RippleAdder(2, gen.Unit)
	stim, _ := vectors.Random(c, vectors.RandomConfig{Vectors: 1, Period: 5, Activity: 1, Seed: 0})
	if _, err := Run(c, stim, 10, Config{}); err == nil {
		t.Fatal("missing partition accepted")
	}
}
