package timewarp

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/simtest"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// TestIntraWorkersMatchSequential runs synchronous clusters under the
// optimistic protocol against the sequential reference. A representative
// subset: TestMatchesSequentialReference covers the full policy matrix on
// plain LPs; this adds the intra-cluster parallel step path.
func TestIntraWorkersMatchSequential(t *testing.T) {
	corpus, err := simtest.StandardCorpus(41)
	if err != nil {
		t.Fatal(err)
	}
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
				res, err := Run(cs.C, cs.Stim, until, Config{Partition: p, IntraWorkers: workers, System: logic.TwoValued})
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

// runClusters runs a 5-bit multiplier on the given number of FM clusters
// of workers sub-workers each, and checks it against the sequential
// reference.
func runClusters(t *testing.T, clusters, workers int) *Result {
	t.Helper()
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
	p, err := partition.New(partition.MethodFM, c, clusters, partition.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, stim, until, Config{Partition: p, IntraWorkers: workers, System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(ref.Waveform, res.Waveform, 5); d != "" {
		t.Fatalf("waveform differs from seq:\n%s", d)
	}
	return res
}

// TestIntraWorkersCriticalPathAndProcessors: every cluster reports an
// intra-cluster critical path, and the modeled machine is clusters times
// workers.
func TestIntraWorkersCriticalPathAndProcessors(t *testing.T) {
	res := runClusters(t, 2, 4)
	if got := res.Processors(); got != 8 {
		t.Fatalf("Processors = %d, want 8", got)
	}
	if res.ModeledTime(stats.DefaultCostModel()) <= 0 {
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

// TestIntraWorkersOneIsPlainTimeWarp pins the degenerate cluster: with
// one worker per cluster the run takes Time Warp's plain step, reports one
// processor per cluster, and is priced as plain Time Warp.
func TestIntraWorkersOneIsPlainTimeWarp(t *testing.T) {
	const clusters = 3
	res := runClusters(t, clusters, 1)
	if got := res.Processors(); got != clusters {
		t.Fatalf("Processors = %d, want %d", got, clusters)
	}
	if res.IntraCritical != nil {
		t.Fatalf("one-worker clusters report an intra critical path %v", res.IntraCritical)
	}
	m := stats.DefaultCostModel()
	if got, want := res.ModeledTime(m), res.Stats.ModeledTime(m); got != want {
		t.Fatalf("ModeledTime = %v, want the plain pricing %v", got, want)
	}
}

// TestIntraWorkersPricing pins Time Warp's one pricing function over
// synthetic counters, bit for bit: without clusters it is
// stats.RunStats.ModeledTime; with them, each cluster's serial evaluation
// cost is replaced by its intra-cluster critical path, and the slowest
// cluster plus the GVT rounds bound the run.
func TestIntraWorkersPricing(t *testing.T) {
	m := stats.DefaultCostModel()
	lps := []metrics.LPCounters{
		{Evaluations: 900, EventsApplied: 300, EventsScheduled: 280, MessagesSent: 40, MessagesRecv: 37,
			Rollbacks: 3, EventsRolledBack: 21, AntiMessagesSent: 5, StateSavedWords: 410},
		{Evaluations: 400, EventsApplied: 500, EventsScheduled: 520, MessagesSent: 12, MessagesRecv: 15,
			AntiMessagesRecv: 5, StateSavedWords: 170, Blocks: 9},
		{Evaluations: 1700, EventsApplied: 90, EventsScheduled: 85, MessagesSent: 3, MessagesRecv: 3},
	}
	clustered := func(st stats.RunStats, crit []float64) float64 {
		var worst float64
		for i, lp := range st.LPs {
			if busy := m.Busy(lp) - m.EvalCost*float64(lp.Evaluations) + crit[i]; busy > worst {
				worst = busy
			}
		}
		return worst + float64(st.GVTRounds)*m.GVT(len(st.LPs))
	}
	for _, tc := range []struct {
		name string
		st   stats.RunStats
		crit []float64
	}{
		{"plain", stats.RunStats{LPs: lps, GVTRounds: 7}, nil},
		{"plain-one-lp", stats.RunStats{LPs: lps[:1]}, nil},
		{"clusters", stats.RunStats{LPs: lps, GVTRounds: 7}, []float64{310.5, 990.25, 120}},
		{"clusters-critical-dominates", stats.RunStats{LPs: lps[:2], GVTRounds: 2}, []float64{1e6, 3}},
	} {
		r := &Result{Stats: tc.st, IntraCritical: tc.crit}
		want := tc.st.ModeledTime(m)
		if tc.crit != nil {
			want = clustered(tc.st, tc.crit)
		}
		if got := r.ModeledTime(m); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: ModeledTime = %v, want %v", tc.name, got, want)
		}
	}
}
