// Benchmarks regenerating every experiment table (F1, E2..E14) plus
// per-engine microbenchmarks. Each BenchmarkFigure1/BenchmarkE* entry runs
// the corresponding experiment at quick scale and reports headline numbers
// as custom metrics, so `go test -bench=.` reproduces the full evaluation;
// `cmd/experiments -full` prints the full-scale tables recorded in
// EXPERIMENTS.md.
package repro_test

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/vectors"
)

// benchExperiment runs one experiment per iteration and reports the last
// numeric column of its last row (the headline number) as a metric.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("no experiment %s", id)
	}
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := e.Run(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if last != nil && len(last.Rows) > 0 {
		row := last.Rows[len(last.Rows)-1]
		for col := len(row) - 1; col >= 0; col-- {
			if v, err := strconv.ParseFloat(row[col], 64); err == nil {
				b.ReportMetric(v, "headline")
				break
			}
		}
	}
}

func BenchmarkFigure1(b *testing.B)           { benchExperiment(b, "F1") }
func BenchmarkScalingProcessors(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkActivityCrossover(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkPartitioners(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkGranularity(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkStateSaving(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkCancellation(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkNullMessages(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkTimingGranularity(b *testing.B) { benchExperiment(b, "E9") }
func BenchmarkPresimulation(b *testing.B)     { benchExperiment(b, "E10") }
func BenchmarkVariance(b *testing.B)          { benchExperiment(b, "E11") }
func BenchmarkHybrid(b *testing.B)            { benchExperiment(b, "E12") }
func BenchmarkFaultParallel(b *testing.B)     { benchExperiment(b, "E13") }
func BenchmarkEventQueues(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkDynamicBalancing(b *testing.B)  { benchExperiment(b, "E15") }
func BenchmarkCriticalPath(b *testing.B)      { benchExperiment(b, "E16") }
func BenchmarkWordParallel(b *testing.B)      { benchExperiment(b, "E17") }

// benchEngine measures raw wall-clock throughput (events/sec) of one
// engine on a fixed mid-sized workload, prepared once.
func benchEngine(b *testing.B, engine core.Engine) {
	benchsuite.BenchEngine(b, engine, "dag2000", 20)
}

func BenchmarkEngineSeq(b *testing.B)       { benchEngine(b, core.EngineSeq) }
func BenchmarkEngineOblivious(b *testing.B) { benchEngine(b, core.EngineOblivious) }
func BenchmarkEngineSync(b *testing.B)      { benchEngine(b, core.EngineSync) }
func BenchmarkEngineCMB(b *testing.B)       { benchEngine(b, core.EngineCMB) }
func BenchmarkEngineTimeWarp(b *testing.B)  { benchEngine(b, core.EngineTimeWarp) }
func BenchmarkEngineHybrid(b *testing.B)    { benchEngine(b, core.EngineHybrid) }

// BenchmarkSeqBySize reports sequential engine scaling with circuit size.
func BenchmarkSeqBySize(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		b.Run(fmt.Sprintf("gates=%d", n), func(b *testing.B) {
			c, err := gen.RandomDAG(gen.RandomConfig{Gates: n, Inputs: 8 + n/64, Outputs: 4 + n/128, Locality: 0.6, Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 10, Period: 40, Activity: 0.5, Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			until := core.Horizon(c, stim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Simulate(c, stim, until, core.Options{Engine: core.EngineSeq, System: logic.TwoValued}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHotPaths runs the committed wall-clock baseline suite
// (internal/benchsuite): allocation microbenchmarks for the per-event hot
// paths, one run per engine and one per partitioner (cut-links and
// imbalance as extras). cmd/benchbaseline executes the same suite to
// regenerate BENCH_parsim.json.
func BenchmarkHotPaths(b *testing.B) {
	for _, bm := range benchsuite.All() {
		b.Run(bm.Name, bm.Fn)
	}
}
