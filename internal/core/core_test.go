package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/eventq"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/simtest"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vectors"
)

func TestEngineNames(t *testing.T) {
	for _, e := range Engines() {
		got, err := ParseEngine(e.String())
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if got != e {
			t.Fatalf("ParseEngine(%q) = %v", e.String(), got)
		}
	}
	if _, err := ParseEngine("frobnicator"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if Engine(99).String() != "Engine(99)" {
		t.Fatal("unknown engine string wrong")
	}
}

// TestAllEnginesAgree runs every engine through the unified API on one
// sequential circuit and requires identical waveforms (oblivious excepted:
// it is cycle-based, so only final settled values are compared).
func TestAllEnginesAgree(t *testing.T) {
	c, err := gen.RandomSeq(gen.RandomConfig{Gates: 250, Inputs: 8, Outputs: 6, Seed: 3, FFRatio: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Clocked(c, vectors.ClockedConfig{Clock: "clk", Cycles: 15, HalfPeriod: 60, Activity: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	until := Horizon(c, stim)
	base, err := Simulate(c, stim, until, Options{Engine: EngineSeq, System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	if base.Modeled <= 0 || base.Processors != 1 {
		t.Fatalf("bad baseline report: %+v", base)
	}
	for _, e := range Engines() {
		if e == EngineSeq {
			continue
		}
		rep, err := Simulate(c, stim, until, Options{
			Engine: e, LPs: 4, Partition: partition.MethodFM, System: logic.TwoValued,
		})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		for g := range base.Values {
			if base.Values[g] != rep.Values[g] {
				t.Fatalf("%v: final value mismatch at gate %d", e, g)
			}
		}
		if e != EngineOblivious {
			if d := trace.Diff(base.Waveform, rep.Waveform, 5); d != "" {
				t.Fatalf("%v waveform mismatch:\n%s", e, d)
			}
		}
		if rep.Modeled <= 0 {
			t.Fatalf("%v: no modeled time", e)
		}
		if s := rep.SpeedupOver(base, stats.CostModel{}); s <= 0 {
			t.Fatalf("%v: speedup = %f", e, s)
		}
	}
}

// TestTimeWarpArmIntraWorkers pins core's one Time Warp arm: the flat
// variants never get intra-cluster workers, whatever IntraWorkers says,
// and hybrid runs clusters of IntraWorkers on every pending-event set.
func TestTimeWarpArmIntraWorkers(t *testing.T) {
	c, err := gen.ArrayMultiplier(4, gen.Fine(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 15, Period: 50, Activity: 0.8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	until := Horizon(c, stim)
	base, err := Simulate(c, stim, until, Options{Engine: EngineSeq, System: logic.TwoValued})
	if err != nil {
		t.Fatal(err)
	}
	const lps, workers = 3, 4
	check := func(name string, opts Options, processors int) *Report {
		t.Helper()
		opts.LPs, opts.IntraWorkers, opts.System = lps, workers, logic.TwoValued
		rep, err := Simulate(c, stim, until, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := trace.Diff(base.Waveform, rep.Waveform, 5); d != "" {
			t.Fatalf("%s waveform mismatch:\n%s", name, d)
		}
		if rep.Processors != processors {
			t.Errorf("%s: Processors = %d, want %d", name, rep.Processors, processors)
		}
		if got, want := rep.Metrics.Labels["lps"], fmt.Sprint(processors); got != want {
			t.Errorf("%s: lps label = %q, want %q", name, got, want)
		}
		return rep
	}
	for _, e := range []Engine{EngineTimeWarp, EngineTimeWarpLazy} {
		rep := check(e.String(), Options{Engine: e}, lps)
		// No intra-cluster critical path: the run is priced as plain LPs.
		if want := rep.Stats.ModeledTime(stats.DefaultCostModel()); rep.Modeled != want {
			t.Errorf("%v: Modeled = %v, want the plain pricing %v", e, rep.Modeled, want)
		}
	}
	for _, q := range []eventq.Impl{eventq.ImplHeap, eventq.ImplCalendar, eventq.ImplWheel} {
		check(fmt.Sprintf("hybrid/%v", q), Options{Engine: EngineHybrid, Queue: q}, lps*workers)
	}
}

func TestPreSimulateProducesWeights(t *testing.T) {
	c, err := gen.ArrayMultiplier(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 10, Period: 50, Activity: 0.6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := PreSimulate(c, stim, Horizon(c, stim), logic.TwoValued)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != len(c.Kinds) {
		t.Fatalf("weights cover %d of %d gates", len(w), len(c.Kinds))
	}
	// Weighted partitioning must accept them.
	if _, err := Simulate(c, stim, Horizon(c, stim), Options{
		Engine: EngineSync, LPs: 4, Partition: partition.MethodFM,
		Weights: w, System: logic.TwoValued,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c, err := gen.RippleAdder(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 5, Period: 30, Activity: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(c, stim, Horizon(c, stim), Options{Engine: EngineSync})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Processors != 4 {
		t.Fatalf("default LPs = %d, want 4", rep.Processors)
	}
}

func TestBadPartitionMethodPropagates(t *testing.T) {
	c, _ := gen.RippleAdder(2, gen.Unit)
	stim, _ := vectors.Random(c, vectors.RandomConfig{Vectors: 1, Period: 5, Activity: 1, Seed: 0})
	if _, err := Simulate(c, stim, 50, Options{
		Engine: EngineSync, Partition: partition.Method(99),
	}); err == nil {
		t.Fatal("invalid partition method accepted")
	}
}

// TestInvalidStimulusRejectedByEveryEngine: a change on a non-input gate,
// or on a gate id beyond the circuit, would index the value planes
// unchecked if it reached an engine body. Both planes validate in their
// entry path, so every engine returns an error instead of panicking.
func TestInvalidStimulusRejectedByEveryEngine(t *testing.T) {
	c, err := gen.RippleAdder(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []circuit.GateID{c.Outputs[0], circuit.GateID(len(c.Kinds))} {
		bad := &vectors.Stimulus{End: 10, Changes: []vectors.Change{{Time: 0, Input: g, Value: logic.One}}}
		wbad := &vectors.WideStimulus{End: 10, Lanes: 1,
			Changes: []vectors.WideChange{{Time: 0, Input: g, Value: logic.Splat(logic.One)}}}
		for _, e := range Engines() {
			opts := Options{Engine: e, LPs: 2, System: logic.TwoValued}
			if _, err := Simulate(c, bad, 10, opts); err == nil {
				t.Errorf("%v: scalar stimulus driving gate %d accepted", e, g)
			} else if errors.As(err, new(*SimError)) {
				t.Errorf("%v: scalar stimulus driving gate %d reached the engine: %v", e, g, err)
			}
			if _, err := SimulateWide(c, wbad, 10, opts); err == nil {
				t.Errorf("%v: wide stimulus driving gate %d accepted", e, g)
			} else if errors.As(err, new(*SimError)) {
				t.Errorf("%v: wide stimulus driving gate %d reached the engine: %v", e, g, err)
			}
		}
	}
}

// TestWideExclusions pins the plane check of a restore snapshot: a
// snapshot boots only a run on its own plane, and the refusal names both
// planes and both logic systems. Everything else a scalar run takes — its
// own checkpoints, restore and adaptive control — a wide run takes too
// (see cut_test.go).
func TestWideExclusions(t *testing.T) {
	c, err := gen.RippleAdder(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	ws, lanes, err := vectors.RandomBatch(c, vectors.RandomConfig{Vectors: 3, Period: 20, Activity: 0.5, Seed: 1}, 8, logic.TwoValued)
	if err != nil {
		t.Fatal(err)
	}
	until := WideHorizon(c, ws)
	nine, err := simtest.ShadowStates(c, lanes[0], until, 20, logic.NineValued, nil)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := simtest.WideShadowStates(c, ws, until, 20, logic.TwoValued, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = SimulateWide(c, ws, until, Options{Engine: EngineCMB, System: logic.TwoValued, Restore: nine[0]})
	if err == nil || !strings.Contains(err.Error(), "scalar plane under 9-valued") || !strings.Contains(err.Error(), "wide run under 2-valued") {
		t.Errorf("a 9-valued scalar snapshot booting a 2-valued wide run: %v", err)
	}
	_, err = Simulate(c, lanes[0], until, Options{Engine: EngineCMB, System: logic.TwoValued, Restore: wide[0]})
	if err == nil || !strings.Contains(err.Error(), "wide plane under 2-valued") || !strings.Contains(err.Error(), "scalar run under 2-valued") {
		t.Errorf("a wide snapshot booting a scalar run: %v", err)
	}
}

// TestVectorsPerSecOnWall pins the one clock of a wide run's throughput:
// VectorsPerSec, and the vectors_per_sec gauge, are Vectors over
// Stats.Wall, the engine call as core times it for every engine.
func TestVectorsPerSecOnWall(t *testing.T) {
	c, err := gen.RippleAdder(4, gen.Unit)
	if err != nil {
		t.Fatal(err)
	}
	ws, _, err := vectors.RandomBatch(c, vectors.RandomConfig{Vectors: 5, Period: 20, Activity: 0.5, Seed: 1}, 8, logic.TwoValued)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{EngineSeq, EngineCMB} {
		rep, err := SimulateWide(c, ws, WideHorizon(c, ws), Options{Engine: e, LPs: 2, System: logic.TwoValued})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Vectors == 0 || rep.Stats.Wall <= 0 {
			t.Fatalf("%v: vectors=%d wall=%v", e, rep.Vectors, rep.Stats.Wall)
		}
		want := float64(rep.Vectors) / rep.Stats.Wall.Seconds()
		if rep.VectorsPerSec != want || rep.Metrics.Gauges["vectors_per_sec"] != want {
			t.Errorf("%v: vectors/s %v, gauge %v; vectors over Stats.Wall is %v",
				e, rep.VectorsPerSec, rep.Metrics.Gauges["vectors_per_sec"], want)
		}
	}
}
