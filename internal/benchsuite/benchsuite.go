// Package benchsuite defines the repository's wall-clock benchmark
// baseline: allocation-counting microbenchmarks for the per-event hot
// paths (kernel step, pending-event queues, a conservative round, an
// optimistic run with rollbacks) plus one end-to-end run per engine.
//
// The suite is a plain data slice of named func(*testing.B) so the same
// workloads run two ways: `go test -bench BenchmarkHotPaths` during
// development, and cmd/benchbaseline, which executes the suite via
// testing.Benchmark and emits BENCH_parsim.json — the committed baseline
// every future performance PR diffs against.
package benchsuite

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim/adapt"
	"repro/internal/sim/cmb"
	"repro/internal/sim/hybrid"
	"repro/internal/sim/kernel"
	"repro/internal/sim/timewarp"
	"repro/internal/vectors"
)

// Benchmark is one named entry of the suite.
type Benchmark struct {
	Name string
	Fn   func(b *testing.B)
}

// All returns the full suite: microbenchmarks first, then the wide-plane
// rows, the optimizer, cone-split, adaptive, and distributed-topology
// rows, then the per-engine end-to-end runs and the partitioners.
func All() []Benchmark {
	out := Micro()
	out = append(out, Wide()...)
	out = append(out, Opt()...)
	out = append(out, ConeSplit()...)
	out = append(out, Adapt()...)
	out = append(out, Dist()...)
	out = append(out, Engines()...)
	return append(out, Partition()...)
}

// Micro returns the hot-path microbenchmarks.
func Micro() []Benchmark {
	out := []Benchmark{
		{"KernelStep", BenchKernelStep},
		{"KernelStepUndo", BenchKernelStepUndo},
		{"CMBRound", BenchCMBRound},
		{"TimeWarpRollback", BenchTimeWarpRollback},
	}
	for _, impl := range []eventq.Impl{eventq.ImplHeap, eventq.ImplCalendar, eventq.ImplWheel} {
		impl := impl
		out = append(out, Benchmark{
			Name: "EventqPushPop/" + impl.String(),
			Fn:   func(b *testing.B) { benchEventqPushPop(b, impl) },
		})
	}
	return out
}

// Engines returns one simulation benchmark per engine on a fixed
// mid-sized workload prepared once (8 LPs under an FM partition), the
// per-engine rows of BENCH_parsim.json.
func Engines() []Benchmark {
	var out []Benchmark
	for _, e := range core.Engines() {
		e := e
		out = append(out, Benchmark{
			Name: "Engine/" + e.String(),
			Fn:   func(b *testing.B) { BenchEngine(b, e, "dag1200", 10) },
		})
	}
	return out
}

// Partition returns one row per min-cut partitioner and cone-split on a
// many-way split of a small DAG and a bisection of a large sequential
// netlist, with the two quality metrics (cut-links, imbalance) as extras.
// Annealing runs a fixed 100k-move budget, not its default 60 moves per
// gate, so its seq40000 row stays under a second.
func Partition() []Benchmark {
	var out []Benchmark
	for _, w := range []struct {
		circuit string
		k       int
	}{{"dag1200", 8}, {"seq40000", 2}} {
		for _, m := range []partition.Method{
			partition.MethodFM, partition.MethodKL, partition.MethodMultilevel,
			partition.MethodAnneal, partition.MethodConeSplit,
		} {
			w, m := w, m
			out = append(out, Benchmark{
				Name: fmt.Sprintf("Partition/%v/%s-k%d", m, w.circuit, w.k),
				Fn:   func(b *testing.B) { benchPartition(b, m, w.circuit, w.k) },
			})
		}
	}
	return out
}

func benchPartition(b *testing.B, m partition.Method, circuitName string, k int) {
	c, err := pipeline.Load(pipeline.Spec{Circuit: circuitName, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var p *partition.Partition
	for i := 0; i < b.N; i++ {
		if p, err = partition.New(m, c, k, partition.Options{Seed: 1, AnnealMoves: 100_000}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(p.CutLinks(c)), "cut-links")
	b.ReportMetric(p.Imbalance(partition.WeightsUniform(c)), "imbalance")
}

// Wide returns the wide-plane (64 lanes per word) benchmarks: the wide
// kernel step, and scalar/wide throughput pairs on an identical 64-lane
// vector workload. Each pair's scalar row replays the 64 per-lane stimuli
// one at a time; the wide row packs them into one run. The vectors/s extra
// metric is directly comparable within a pair — the wide win the paper's
// word-parallel direction promises is that ratio.
func Wide() []Benchmark {
	out := []Benchmark{
		{"WideKernelStep", BenchWideKernelStep},
	}
	for _, e := range []core.Engine{core.EngineSeq, core.EngineOblivious, core.EngineCMB} {
		e := e
		out = append(out,
			Benchmark{
				Name: "Vectors/" + e.String() + "-scalar",
				Fn:   func(b *testing.B) { benchVectors(b, e, false) },
			},
			Benchmark{
				Name: "Vectors/" + e.String() + "-wide",
				Fn:   func(b *testing.B) { benchVectors(b, e, true) },
			})
	}
	return out
}

// Opt returns the netlist-optimizer rows: the pipeline's own cost on a
// mid-sized DAG (with the headline reduction ratios as extra metrics), and
// a plain/optimized pair of end-to-end conservative runs on the
// BenchCMBRound workload so the event-count win of simulating the smaller
// netlist shows up as a wall-clock and nulls/run delta.
func Opt() []Benchmark {
	return []Benchmark{
		{"Opt/Pipeline", BenchOptPipeline},
		{"Opt/CMBRound", BenchOptCMBRound},
	}
}

// ConeSplit returns the cone-partition rows: the BenchCMBRound workload
// rerun with whole combinational cones packed per LP and the oblivious
// block sweep armed, on the conservative and hybrid engines. The headline
// is nulls/run versus the stock CMBRound row — cone boundaries coincide
// with sequential boundaries, so almost all synchronization null traffic
// disappears.
func ConeSplit() []Benchmark {
	return []Benchmark{
		{"ConeSplit/CMBRound", BenchConeSplitCMBRound},
		{"ConeSplit/HybridRound", BenchConeSplitHybridRound},
	}
}

// Adapt returns the adaptive-synchronization rows: the E20 low-activity
// workload (the CMBRound circuit at activity 0.1, where the conservative
// protocol is null-bound) run under the two static protocol choices and
// under closed-loop adaptive control starting from the bad one. The
// headline comparison is wall-clock: adaptive must land near the good
// static column despite probing, and the switches/run extra metric
// proves the controller — not luck — got it there.
func Adapt() []Benchmark {
	return []Benchmark{
		{"Adapt/StaticConservative", BenchAdaptStaticConservative},
		{"Adapt/StaticOptimistic", BenchAdaptStaticOptimistic},
		{"Adapt/Adaptive", BenchAdaptAdaptive},
	}
}

// adaptRunFixture is the E20 workload: the CMBRound circuit with the
// activity dialed down to 0.1 — where null traffic dwarfs real events on
// a min-cut partition and the engine choice dominates wall-clock — and
// the stimulus lengthened to 1536 vectors so the run is long enough for
// probe segments to amortize against.
func adaptRunFixture(b *testing.B) *runFixture {
	b.Helper()
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 300, Inputs: 12, Outputs: 8, Locality: 0.6, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 1536, Period: 30, Activity: 0.1, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	return &runFixture{c: c, stim: stim, until: core.Horizon(c, stim)}
}

func benchAdapt(b *testing.B, engine core.Engine, spec *adapt.Spec) {
	fx := adaptRunFixture(b)
	opts := core.Options{
		Engine: engine, LPs: 8, Partition: partition.MethodFM, PartitionSeed: 11,
		System: logic.TwoValued,
	}
	if spec != nil {
		sp := *spec
		// Short probe segments (128 ticks on a ~46k-tick horizon) and a
		// 2-segment budget keep adaptation overhead inside the 10% the
		// E20 acceptance allows over the best static configuration.
		sp.Every = 128
		sp.MaxProbes = 2
		opts.Adapt = &sp
	}
	b.ReportAllocs()
	b.ResetTimer()
	var nulls uint64
	var switches, segments int
	for i := 0; i < b.N; i++ {
		rep, err := core.Simulate(fx.c, fx.stim, fx.until, opts)
		if err != nil {
			b.Fatal(err)
		}
		nulls = rep.Stats.Total().NullsSent
		if rep.Adapt != nil {
			switches = rep.Adapt.EngineSwitches
			segments = rep.Adapt.Segments
		}
	}
	b.ReportMetric(float64(nulls), "nulls/run")
	if spec != nil {
		b.ReportMetric(float64(switches), "switches/run")
		b.ReportMetric(float64(segments), "segments/run")
	}
}

// BenchAdaptStaticConservative is the bad static choice for the
// low-activity workload: the eager-null conservative engine pays its
// per-timestep null synchronization bill regardless of how few real
// events flow.
func BenchAdaptStaticConservative(b *testing.B) {
	benchAdapt(b, core.EngineCMB, nil)
}

// BenchAdaptStaticOptimistic is the good static choice: Time Warp sends
// no nulls, and the low activity produces few stragglers to roll back.
func BenchAdaptStaticOptimistic(b *testing.B) {
	benchAdapt(b, core.EngineTimeWarp, nil)
}

// BenchAdaptAdaptive starts on the bad engine with the closed-loop
// controllers live: the switch supervisor observes the null-bound first
// segment, migrates to Time Warp via checkpoint/restart, and commits.
func BenchAdaptAdaptive(b *testing.B) {
	benchAdapt(b, core.EngineCMB, &adapt.Spec{})
}

// kernelFixture builds a single-LP executor over a mid-sized DAG with two
// alternating input patterns, so every benchmarked Step changes state.
func kernelFixture(b *testing.B) (*kernel.LP, [2][]kernel.Event) {
	b.Helper()
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 400, Inputs: 16, Outputs: 8, Locality: 0.6, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	owner := make([]int, len(c.Gates))
	own := make([]circuit.GateID, len(c.Gates))
	for g := range own {
		own[g] = circuit.GateID(g)
	}
	lp := kernel.New(c, owner, 0, logic.TwoValued, nil, own)
	lp.Schedule = func(circuit.Tick, circuit.GateID, logic.Value) {}
	lp.Send = func(int, circuit.Tick, circuit.GateID, logic.Value) {}
	var evs [2][]kernel.Event
	for i, in := range c.Inputs {
		v := logic.FromBool(i%2 == 0)
		evs[0] = append(evs[0], kernel.Event{Gate: in, Value: v})
		evs[1] = append(evs[1], kernel.Event{Gate: in, Value: logic.Not(v)})
	}
	return lp, evs
}

// BenchKernelStep measures one warm LP timestep (apply + evaluate) with no
// undo logging. The allocation-regression tests pin this at 0 allocs/op.
func BenchKernelStep(b *testing.B) {
	lp, evs := kernelFixture(b)
	var st metrics.LPCounters
	lp.Step(0, evs[0], true, nil, &st)
	b.ReportAllocs()
	b.ResetTimer()
	t := circuit.Tick(1)
	for i := 0; i < b.N; i++ {
		lp.Step(t, evs[i%2], false, nil, &st)
		t++
	}
	b.ReportMetric(float64(st.Evaluations)/float64(b.N), "evals/op")
}

// BenchKernelStepUndo is the same step with incremental state saving into a
// reused undo log — Time Warp's forward-path cost.
func BenchKernelStepUndo(b *testing.B) {
	lp, evs := kernelFixture(b)
	var st metrics.LPCounters
	lp.Step(0, evs[0], true, nil, &st)
	var undo kernel.Undo
	b.ReportAllocs()
	b.ResetTimer()
	t := circuit.Tick(1)
	for i := 0; i < b.N; i++ {
		undo.Reset()
		lp.Step(t, evs[i%2], false, &undo, &st)
		t++
	}
}

// wideKernelFixture is kernelFixture on the 64-lane plane with two
// alternating checkerboard word patterns, so every lane toggles each step.
func wideKernelFixture(b *testing.B) (*kernel.WideLP, [2][]kernel.WideEvent) {
	b.Helper()
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 400, Inputs: 16, Outputs: 8, Locality: 0.6, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	owner := make([]int, len(c.Gates))
	own := make([]circuit.GateID, len(c.Gates))
	for g := range own {
		own[g] = circuit.GateID(g)
	}
	lp := kernel.NewOn(circuit.Wide, c, owner, 0, logic.TwoValued, nil, own)
	lp.Schedule = func(circuit.Tick, circuit.GateID, logic.Word) {}
	lp.Send = func(int, circuit.Tick, circuit.GateID, logic.Word) {}
	var a logic.Word
	for k := 0; k < logic.Lanes; k++ {
		a.Set(k, logic.FromBool(k%2 == 0))
	}
	n := logic.WideNot(a)
	var evs [2][]kernel.WideEvent
	for i, in := range c.Inputs {
		w0, w1 := a, n
		if i%2 == 1 {
			w0, w1 = n, a
		}
		evs[0] = append(evs[0], kernel.WideEvent{Gate: in, Value: w0})
		evs[1] = append(evs[1], kernel.WideEvent{Gate: in, Value: w1})
	}
	return lp, evs
}

// BenchWideKernelStep measures one warm wide LP timestep: the same apply +
// evaluate loop as BenchKernelStep with every operation processing 64
// lanes. lane-evals/op counts evaluations times lanes — the vector work a
// step retires; ns/op divided by it is the per-vector-evaluation cost the
// wide plane exists to shrink.
func BenchWideKernelStep(b *testing.B) {
	lp, evs := wideKernelFixture(b)
	var st metrics.LPCounters
	lp.Step(0, evs[0], true, nil, &st)
	b.ReportAllocs()
	b.ResetTimer()
	t := circuit.Tick(1)
	for i := 0; i < b.N; i++ {
		lp.Step(t, evs[i%2], false, nil, &st)
		t++
	}
	b.ReportMetric(float64(st.Evaluations)/float64(b.N), "evals/op")
	b.ReportMetric(float64(st.Evaluations)*float64(logic.Lanes)/float64(b.N), "lane-evals/op")
}

// benchVectors measures vector throughput on a fixed 64-lane workload:
// 64 independent random stimuli over a mid-sized DAG. The scalar variant
// simulates the lanes one at a time (64 engine runs per op); the wide
// variant packs them into a single 64-lane run. Both report vectors/s over
// the identical total vector count, so within an engine the wide/scalar
// ratio is the word-parallel speedup.
func benchVectors(b *testing.B, engine core.Engine, wide bool) {
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 600, Inputs: 12, Outputs: 8, Locality: 0.6, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	ws, stims, err := vectors.RandomBatch(c, vectors.RandomConfig{
		Vectors: 8, Period: 30, Activity: 0.6, Seed: 11,
	}, logic.Lanes, logic.TwoValued)
	if err != nil {
		b.Fatal(err)
	}
	until := core.WideHorizon(c, ws)
	opts := core.Options{
		Engine: engine, LPs: 4, Partition: partition.MethodFM, PartitionSeed: 11,
		System: logic.TwoValued,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var totalVectors float64
	for i := 0; i < b.N; i++ {
		if wide {
			rep, err := core.SimulateWide(c, ws, until, opts)
			if err != nil {
				b.Fatal(err)
			}
			totalVectors = float64(rep.Vectors)
		} else {
			for _, stim := range stims {
				if _, err := core.Simulate(c, stim, until, opts); err != nil {
					b.Fatal(err)
				}
			}
			totalVectors = float64(ws.NumVectors() * ws.Lanes)
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(totalVectors*float64(b.N)/sec, "vectors/s")
	}
	b.ReportMetric(totalVectors, "vectors/op")
}

// benchEventqPushPop measures the steady-state pop-one/push-one cycle of a
// pending-event set, including occasional pushes beyond the timing wheel's
// horizon so the overflow promotion path is exercised.
func benchEventqPushPop(b *testing.B, impl eventq.Impl) {
	q := eventq.New[int](impl)
	for i := 0; i < 512; i++ {
		q.Push(uint64(i%61), i)
	}
	// Warm one full wrap so slot/bucket storage reaches steady state.
	for i := 0; i < 4096; i++ {
		t, v, _ := q.PopMin()
		q.Push(t+1+uint64(v%7), v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, v, ok := q.PopMin()
		if !ok {
			b.Fatal("queue drained")
		}
		delta := uint64(1 + v%7)
		if v%97 == 0 {
			delta = 300 // beyond the wheel horizon: overflow then promote
		}
		q.Push(t+delta, v)
	}
}

// cmbFixture is a shared conservative workload: a hot random DAG, an FM
// partition, and a random stimulus, all prebuilt so the benchmark measures
// the run itself.
type runFixture struct {
	c     *circuit.Circuit
	stim  *vectors.Stimulus
	until circuit.Tick
	part  *partition.Partition
}

func newRunFixture(b *testing.B, gates, lps int, method partition.Method, seqCircuit bool) *runFixture {
	b.Helper()
	var (
		c   *circuit.Circuit
		err error
	)
	if seqCircuit {
		c, err = gen.RandomSeq(gen.RandomConfig{Gates: gates, Inputs: 12, Outputs: 8, Locality: 0.6, Seed: 11, FFRatio: 0.15})
	} else {
		c, err = gen.RandomDAG(gen.RandomConfig{Gates: gates, Inputs: 12, Outputs: 8, Locality: 0.6, Seed: 11})
	}
	if err != nil {
		b.Fatal(err)
	}
	var stim *vectors.Stimulus
	if seqCircuit {
		stim, err = vectors.Clocked(c, vectors.ClockedConfig{Clock: "clk", Cycles: 12, HalfPeriod: 25, Activity: 0.6, Seed: 11})
	} else {
		stim, err = vectors.Random(c, vectors.RandomConfig{Vectors: 12, Period: 30, Activity: 0.7, Seed: 11})
	}
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.New(method, c, lps, partition.Options{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	return &runFixture{c: c, stim: stim, until: core.Horizon(c, stim), part: part}
}

// BenchCMBRound measures one full conservative (eager-null) run: every
// event, cross-LP message, and null message of the workload. B/op and
// allocs/op here are the conservative engine's per-round garbage bill.
func BenchCMBRound(b *testing.B) {
	fx := newRunFixture(b, 300, 8, partition.MethodFM, false)
	b.ReportAllocs()
	b.ResetTimer()
	var nulls uint64
	for i := 0; i < b.N; i++ {
		res, err := cmb.Run(fx.c, fx.stim, fx.until, cmb.Config{
			Partition: fx.part, Mode: cmb.NullEager, System: logic.TwoValued,
		})
		if err != nil {
			b.Fatal(err)
		}
		nulls = res.Stats.Total().NullsSent
	}
	b.ReportMetric(float64(nulls), "nulls/run")
}

// BenchOptPipeline measures the optimizer pipeline itself (default exact
// passes, run to fixpoint) on the benchEngine netlist. gates-removed/op and
// depth-after are the headline reduction the pipeline buys; ns/op is its
// one-time cost against the per-run savings in the Opt/CMBRound row.
func BenchOptPipeline(b *testing.B) {
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 1200, Inputs: 24, Outputs: 12, Locality: 0.6, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st opt.Stats
	for i := 0; i < b.N; i++ {
		res, err := opt.Optimize(c, opt.Options{})
		if err != nil {
			b.Fatal(err)
		}
		st = res.Stats
	}
	b.ReportMetric(float64(st.GatesBefore-st.GatesAfter), "gates-removed/op")
	b.ReportMetric(float64(st.LevelsBefore), "depth-before")
	b.ReportMetric(float64(st.LevelsAfter), "depth-after")
}

// BenchOptCMBRound is BenchCMBRound after the optimizer: the identical
// workload, with the netlist optimized (and the stimulus remapped) before
// partitioning. Compare ns/op and nulls/run directly against CMBRound —
// the delta is what simulating the smaller netlist saves every run.
func BenchOptCMBRound(b *testing.B) {
	fx := newRunFixture(b, 300, 8, partition.MethodFM, false)
	ores, err := opt.Optimize(fx.c, opt.Options{})
	if err != nil {
		b.Fatal(err)
	}
	stim, err := ores.Remap.Stimulus(fx.stim)
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.New(partition.MethodFM, ores.Circuit, 8, partition.Options{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var nulls uint64
	for i := 0; i < b.N; i++ {
		res, err := cmb.Run(ores.Circuit, stim, fx.until, cmb.Config{
			Partition: part, Mode: cmb.NullEager, System: logic.TwoValued,
		})
		if err != nil {
			b.Fatal(err)
		}
		nulls = res.Stats.Total().NullsSent
	}
	b.ReportMetric(float64(nulls), "nulls/run")
	b.ReportMetric(float64(ores.Stats.GatesBefore-ores.Stats.GatesAfter), "gates-removed")
}

// BenchConeSplitCMBRound is BenchCMBRound under the cone-split partition
// with the oblivious block sweep armed: whole combinational cones evaluate
// in one levelized pass per timestep and LPs exchange real events only at
// sequential/source boundaries. nulls/run against the stock CMBRound row is
// the null-traffic reduction the cone grouping exists for.
func BenchConeSplitCMBRound(b *testing.B) {
	fx := newRunFixture(b, 300, 8, partition.MethodFM, false)
	part, err := partition.New(partition.MethodConeSplit, fx.c, 8, partition.Options{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var nulls uint64
	for i := 0; i < b.N; i++ {
		res, err := cmb.Run(fx.c, fx.stim, fx.until, cmb.Config{
			Partition: part, Mode: cmb.NullEager, System: logic.TwoValued, Sweep: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		nulls = res.Stats.Total().NullsSent
	}
	b.ReportMetric(float64(nulls), "nulls/run")
	b.ReportMetric(float64(part.Blocks), "lps")
}

// BenchConeSplitHybridRound runs the same workload on the hybrid engine
// with cone clusters: fat oblivious cones inside, optimistic synchronization
// only between sequential frontiers.
func BenchConeSplitHybridRound(b *testing.B) {
	fx := newRunFixture(b, 300, 8, partition.MethodFM, false)
	part, err := partition.New(partition.MethodConeSplit, fx.c, 8, partition.Options{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rollbacks uint64
	for i := 0; i < b.N; i++ {
		res, err := hybrid.Run(fx.c, fx.stim, fx.until, hybrid.Config{
			Partition: part, IntraWorkers: 2, System: logic.TwoValued, Sweep: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		rollbacks = res.Stats.Total().Rollbacks
	}
	b.ReportMetric(float64(rollbacks), "rollbacks/run")
}

// BenchTimeWarpRollback measures a full optimistic run on a clocked
// sequential circuit under a contiguous partition — a deliberately bad cut
// whose stragglers force real rollbacks, so state saving, rollback, and
// cancellation all appear in the per-op allocation bill.
func BenchTimeWarpRollback(b *testing.B) {
	fx := newRunFixture(b, 250, 4, partition.MethodContiguous, true)
	b.ReportAllocs()
	b.ResetTimer()
	var rollbacks, undone uint64
	for i := 0; i < b.N; i++ {
		// GVT every 500µs (vs the 50ms default) so fossil collection — and
		// with it history recycling — runs several times within the run,
		// as it would in any long simulation.
		res, err := timewarp.Run(fx.c, fx.stim, fx.until, timewarp.Config{
			Partition: fx.part, System: logic.TwoValued,
			GVTInterval: 500 * time.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		tot := res.Stats.Total()
		rollbacks = tot.Rollbacks
		undone = tot.EventsRolledBack
	}
	b.ReportMetric(float64(rollbacks), "rollbacks/run")
	b.ReportMetric(float64(undone), "undone/run")
}

// BenchEngine measures one engine run per iteration on the named circuit
// under random stimulus. Load, stimulus and the 8-way FM partition are
// prepared once, outside the timed loop: the row measures the engine.
func BenchEngine(b *testing.B, engine core.Engine, circuitName string, nvectors int) {
	run, err := pipeline.Prepare(pipeline.Spec{
		Circuit: circuitName, Seed: 1, Vectors: nvectors, Period: 40, Activity: 0.5,
		System: logic.TwoValued, LPs: 8, Partition: partition.MethodFM,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
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
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(events)*float64(b.N)/sec, "events/s")
	}
}

// Names returns the suite's benchmark names in order, for documentation
// and the baseline writer.
func Names() []string {
	var out []string
	for _, bm := range All() {
		out = append(out, bm.Name)
	}
	return out
}
