// Benchmarks regenerating every registered experiment table (F1,
// E2..E18, E20) plus per-engine and per-partitioner rows. Each experiment
// benchmark runs the corresponding experiment at quick scale and reports
// its headline number as a custom metric, so `go test -bench=.` reproduces
// the full evaluation; `cmd/experiments -full` prints the full-scale
// tables recorded in EXPERIMENTS.md. End-to-end and per-layer wall-clock
// numbers come from the benchmark/ harness (bash benchmark/run.sh).
package repro_test

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/pipeline"
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
func BenchmarkWideEvaluation(b *testing.B)    { benchExperiment(b, "E18") }
func BenchmarkAdaptive(b *testing.B)          { benchExperiment(b, "E20") }

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

// BenchmarkEngine measures one run of every engine per iteration on a
// fixed mid-sized workload: dag2000 under 20 random vectors, split 8 ways
// by FM. Load, stimulus and partition are prepared once, outside the
// timed loop, so the row measures the engine: allocs/op is its own
// garbage bill and events/s its throughput. The Time Warp rows also
// report history-words, the most rollback history the run's LPs held at
// once (the history_peak_words gauge), which bounds their logs.
func BenchmarkEngine(b *testing.B) {
	run, err := pipeline.Prepare(pipeline.Spec{
		Circuit: "dag2000", Seed: 1, Vectors: 20, Period: 40, Activity: 0.5,
		System: logic.TwoValued, LPs: 8, Partition: partition.MethodFM,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, engine := range core.Engines() {
		b.Run(engine.String(), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			peak, optimistic := 0.0, false
			for i := 0; i < b.N; i++ {
				rep, err := core.Run(run, core.Options{Engine: engine, System: logic.TwoValued})
				if err != nil {
					b.Fatal(err)
				}
				if engine == core.EngineSeq {
					events = rep.SeqWork.EventsApplied
				} else if tot := rep.Stats.Total(); tot.EventsApplied > 0 {
					events = tot.EventsApplied
				} else {
					// The oblivious engine has no events; count evaluations.
					events = tot.Evaluations
				}
				if w, ok := rep.Metrics.Gauges["history_peak_words"]; ok {
					peak, optimistic = max(peak, w), true
				}
			}
			if optimistic {
				b.ReportMetric(peak, "history-words")
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(events)*float64(b.N)/sec, "events/s")
			}
		})
	}
}

// BenchmarkSetup measures the set-up layers ahead of partitioning on
// seq40000 (40 951 gates): "read" parses the netlist's .bench text the
// way a run reads its file, "read-fine" does the same for par.cmb's input
// (dag12000 with delays 1-4, a delay directive for most gates), "live"
// reports the heap a freshly read circuit holds, and "optimize" runs the
// default optimizer pipeline over the parsed circuit. The live-B metric
// of "live" and "optimize" is the live heap after a GC with the result
// reachable, less the live heap before the call, so each layer shows what
// it allocates against what it keeps.
func BenchmarkSetup(b *testing.B) {
	text := benchText(b, gen.Unit, "seq40000")
	fine := benchText(b, gen.Fine(4, 1), "dag12000")
	parsed, err := bench.ReadString(text)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct{ name, text string }{{"read", text}, {"read-fine", fine}} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.Read(strings.NewReader(row.text)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("live", func(b *testing.B) {
		var live float64
		for i := 0; i < b.N; i++ {
			live = liveBytes(b, func() (any, error) { return bench.Read(strings.NewReader(text)) })
		}
		b.ReportMetric(live, "live-B")
	})
	b.Run("optimize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := opt.Optimize(parsed, opt.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(liveBytes(b, func() (any, error) { return opt.Optimize(parsed, opt.Options{}) }), "live-B")
	})
}

// benchText generates a netlist the way benchmark/ writes its workloads'
// inputs (generator seed 1) and renders it as .bench text.
func benchText(b *testing.B, delays gen.DelaySpec, name string) string {
	c, err := gen.ByName(name, delays, 1)
	if err != nil {
		b.Fatal(err)
	}
	text, err := bench.WriteString(c, name)
	if err != nil {
		b.Fatal(err)
	}
	return text
}

// liveBytes reports the heap that build's result keeps reachable: the
// live heap after a GC with the result held, less the live heap after a
// GC before the call.
func liveBytes(b *testing.B, build func() (any, error)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v, err := build()
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
}

// BenchmarkPartition runs every min-cut partitioner and cone-split on a
// many-way split of a small DAG and a bisection of a large sequential
// netlist, reporting the two quality metrics (cut-links, imbalance).
// Annealing runs a fixed 100k-move budget, not its default 60 moves per
// gate, so its seq40000 row stays under a second.
func BenchmarkPartition(b *testing.B) {
	for _, w := range []struct {
		circuit string
		k       int
	}{{"dag1200", 8}, {"seq40000", 2}} {
		c, err := pipeline.Load(pipeline.Spec{Circuit: w.circuit, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []partition.Method{
			partition.MethodFM, partition.MethodKL, partition.MethodMultilevel,
			partition.MethodAnneal, partition.MethodConeSplit,
		} {
			b.Run(fmt.Sprintf("%v/%s-k%d", m, w.circuit, w.k), func(b *testing.B) {
				b.ReportAllocs()
				var (
					p   *partition.Partition
					err error
				)
				for i := 0; i < b.N; i++ {
					if p, err = partition.New(m, c, w.k, partition.Options{Seed: 1, AnnealMoves: 100_000}); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(p.CutLinks(c)), "cut-links")
				b.ReportMetric(p.Imbalance(partition.WeightsUniform(c)), "imbalance")
			})
		}
	}
}
