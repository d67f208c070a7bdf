package core

import (
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/adapt"
	"repro/internal/sim/ckpt"
	"repro/internal/trace"
)

// adaptOpts is the shared static configuration of the adaptive tests.
func adaptOpts(e Engine) Options {
	return Options{
		Engine: e, LPs: 4, Partition: partition.MethodFM, System: logic.TwoValued,
	}
}

// TestAdaptiveMatchesStatic runs every parallel start engine under live
// adaptive control and requires the waveform, final values, and end
// time to be bit-identical to the sequential golden run — adaptation
// may change when things execute, never what is computed.
func TestAdaptiveMatchesStatic(t *testing.T) {
	c, stim, until := workload(t)
	base := golden(t, c, stim, until)
	for _, e := range []Engine{EngineCMB, EngineTimeWarp, EngineHybrid} {
		t.Run(e.String(), func(t *testing.T) {
			opts := adaptOpts(e)
			opts.Adapt = &adapt.Spec{Every: 300}
			rep, err := Simulate(c, stim, until, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := trace.Diff(base.Waveform, rep.Waveform, 5); d != "" {
				t.Fatalf("adaptive waveform differs from golden:\n%s", d)
			}
			for g := range base.Values {
				if base.Values[g] != rep.Values[g] {
					t.Fatalf("final value mismatch at gate %d", g)
				}
			}
			if rep.EndTime != base.EndTime {
				t.Fatalf("EndTime %d, want %d", rep.EndTime, base.EndTime)
			}
			if rep.Adapt == nil {
				t.Fatal("no AdaptReport on adaptive run")
			}
			if rep.Adapt.Segments < 2 {
				t.Fatalf("cadence 300 produced %d segments, want >= 2", rep.Adapt.Segments)
			}
			if rep.Metrics == nil || rep.Metrics.Gauges["adapt_segments"] != float64(rep.Adapt.Segments) {
				t.Fatalf("adapt_segments gauge missing or wrong: %+v", rep.Metrics.Gauges)
			}
			if len(rep.Adapt.Decisions) == 0 {
				t.Fatal("empty decision log: controllers never observed the run")
			}
		})
	}
}

// TestAdaptiveScriptedSwitch forces a mid-run engine migration via the
// decision script and requires the checkpoint/restart handoff to be
// invisible in the waveform.
func TestAdaptiveScriptedSwitch(t *testing.T) {
	c, stim, until := workload(t)
	base := golden(t, c, stim, until)
	opts := adaptOpts(EngineCMB)
	opts.Adapt = &adapt.Spec{
		Every: 300, NoSwitch: true, NoRebalance: true,
		Script: []adapt.Decision{{Round: 0, Kind: adapt.KindSwitch, To: "timewarp"}},
	}
	rep, err := Simulate(c, stim, until, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(base.Waveform, rep.Waveform, 5); d != "" {
		t.Fatalf("switched waveform differs from golden:\n%s", d)
	}
	if rep.Adapt.EngineSwitches != 1 {
		t.Fatalf("EngineSwitches = %d, want 1 (decisions: %v)", rep.Adapt.EngineSwitches, rep.Adapt.Decisions)
	}
	if rep.Adapt.FinalEngine != EngineTimeWarp {
		t.Fatalf("FinalEngine = %v, want timewarp", rep.Adapt.FinalEngine)
	}
	if rep.Metrics.Gauges["adapt_engine_switches"] != 1 {
		t.Fatalf("adapt_engine_switches gauge wrong: %+v", rep.Metrics.Gauges)
	}
	// The From side of the logged switch must name the engine it left.
	var found bool
	for _, d := range rep.Adapt.Decisions {
		if d.Kind == adapt.KindSwitch {
			found = true
			if d.From != "cmb" || d.To != "timewarp" {
				t.Fatalf("switch logged as %s -> %s", d.From, d.To)
			}
		}
	}
	if !found {
		t.Fatalf("no switch decision in log: %v", rep.Adapt.Decisions)
	}
}

// TestAdaptiveScriptedRebalanceAndWindow forces a measured-weight
// repartition and a window change; both must leave the waveform
// untouched and land in the report.
func TestAdaptiveScriptedRebalanceAndWindow(t *testing.T) {
	c, stim, until := workload(t)
	base := golden(t, c, stim, until)
	opts := adaptOpts(EngineTimeWarp)
	opts.Adapt = &adapt.Spec{
		Every: 300, NoSwitch: true, NoRebalance: true, NoWindow: true,
		Script: []adapt.Decision{
			{Round: 0, Kind: adapt.KindRebalance},
			{Round: 1, Kind: adapt.KindWindow, Window: 64},
		},
	}
	rep, err := Simulate(c, stim, until, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(base.Waveform, rep.Waveform, 5); d != "" {
		t.Fatalf("rebalanced waveform differs from golden:\n%s", d)
	}
	if rep.Adapt.Rebalances != 1 {
		t.Fatalf("Rebalances = %d, want 1 (decisions: %v)", rep.Adapt.Rebalances, rep.Adapt.Decisions)
	}
	if rep.Metrics.Gauges["adapt_rebalances"] != 1 {
		t.Fatalf("adapt_rebalances gauge wrong: %+v", rep.Metrics.Gauges)
	}
}

// TestAdaptiveWithHistoryLimit combines the PR 4 memory clamp with the
// live window controller: the clamp must keep winning (the run
// completes without livelock) and the waveform must stay golden.
//
// The limit is a few words — what one LP saves in a step or two — so
// every schedule exceeds it. A limit near the run's natural peak (512
// here once) made "throttled at least once" depend on how far ahead the
// LPs happened to run: under -race they peaked at 321–490 words and the
// assertion failed about one run in seven.
func TestAdaptiveWithHistoryLimit(t *testing.T) {
	c, stim, until := workload(t)
	base := golden(t, c, stim, until)
	opts := adaptOpts(EngineTimeWarp)
	opts.HistoryLimit = 16
	opts.Adapt = &adapt.Spec{Every: 300, NoSwitch: true, NoRebalance: true}
	rep, err := Simulate(c, stim, until, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(base.Waveform, rep.Waveform, 5); d != "" {
		t.Fatalf("clamped adaptive waveform differs from golden:\n%s", d)
	}
	if rep.Metrics.Gauges["mem_throttle_rounds"] < 1 {
		t.Fatalf("tiny history limit never throttled: %+v", rep.Metrics.Gauges)
	}
}

// TestAdaptiveComposesWithRestore resumes an adaptive run from a
// mid-run checkpoint; the spliced waveform must be golden even though
// the first segment boundary is not aligned to the restore point.
func TestAdaptiveComposesWithRestore(t *testing.T) {
	c, stim, until := workload(t)
	base := golden(t, c, stim, until)
	dir := t.TempDir()
	if _, err := Simulate(c, stim, until, Options{
		Engine: EngineSeq, System: logic.TwoValued,
		CheckpointEvery: 250, CheckpointDir: dir,
	}); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.json"))
	if len(names) == 0 {
		t.Fatal("no checkpoints written")
	}
	sort.Strings(names)
	st, err := ckpt.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	opts := adaptOpts(EngineCMB)
	opts.Restore = st
	opts.Adapt = &adapt.Spec{Every: 300}
	rep, err := Simulate(c, stim, until, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(base.Waveform, rep.Waveform, 5); d != "" {
		t.Fatalf("restored adaptive waveform differs from golden:\n%s", d)
	}
	if rep.EndTime != base.EndTime {
		t.Fatalf("EndTime %d, want %d", rep.EndTime, base.EndTime)
	}
}

// TestAdaptiveComposesWithSupervision runs each probing segment under
// the supervision layer; a clean run must record no recoveries and
// still adapt.
func TestAdaptiveComposesWithSupervision(t *testing.T) {
	c, stim, until := workload(t)
	base := golden(t, c, stim, until)
	opts := adaptOpts(EngineTimeWarp)
	opts.Supervise = &SuperviseOptions{Retries: 1, Fallback: true}
	opts.Adapt = &adapt.Spec{Every: 300}
	rep, err := Simulate(c, stim, until, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(base.Waveform, rep.Waveform, 5); d != "" {
		t.Fatalf("supervised adaptive waveform differs from golden:\n%s", d)
	}
	if rep.Supervision == nil {
		t.Fatal("no supervision report")
	}
	if rep.Supervision.Recoveries != 0 || rep.Supervision.Fallbacks != 0 {
		t.Fatalf("clean run recorded recoveries: %+v", rep.Supervision)
	}
	if rep.Adapt == nil || rep.Adapt.Segments < 2 {
		t.Fatalf("supervised run did not segment: %+v", rep.Adapt)
	}
}

// TestAdaptiveRejections: serial engines and un-restorable switch targets
// are configuration errors, not silent fallbacks (TestWideExclusions pins
// the wide rejection).
func TestAdaptiveRejections(t *testing.T) {
	c, stim, until := workload(t)
	opts := adaptOpts(EngineSeq)
	opts.Adapt = &adapt.Spec{}
	if _, err := Simulate(c, stim, until, opts); err == nil {
		t.Fatal("adaptive seq run accepted")
	}
	opts = adaptOpts(EngineCMB)
	opts.Adapt = &adapt.Spec{
		Every:  300,
		Script: []adapt.Decision{{Round: 0, Kind: adapt.KindSwitch, To: "oblivious"}},
	}
	if _, err := Simulate(c, stim, until, opts); err == nil {
		t.Fatal("switch to the oblivious engine accepted")
	}
	opts.Adapt.Script[0].To = "no-such-engine"
	if _, err := Simulate(c, stim, until, opts); err == nil {
		t.Fatal("switch to unknown engine accepted")
	}
}

// TestAdaptiveProbeBudget: with a cadence that would produce many
// segments, MaxProbes must cap probing with an explicit commit
// decision, after which the run proceeds unsegmented.
func TestAdaptiveProbeBudget(t *testing.T) {
	c, stim, until := workload(t)
	opts := adaptOpts(EngineCMB)
	// Huge SettleAfter so the switch controller never commits on its own.
	opts.Adapt = &adapt.Spec{Every: 100, MaxProbes: 2, Switch: adapt.SwitchConfig{SettleAfter: 1000}}
	rep, err := Simulate(c, stim, until, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adapt.Segments != 3 { // 2 probes + 1 committed run to horizon
		t.Fatalf("Segments = %d, want 3 (decisions: %v)", rep.Adapt.Segments, rep.Adapt.Decisions)
	}
	if !rep.Adapt.Committed {
		t.Fatal("probe budget did not commit")
	}
	var commits int
	for _, d := range rep.Adapt.Decisions {
		if d.Kind == adapt.KindCommit {
			commits++
		}
	}
	if commits != 1 {
		t.Fatalf("commit decisions = %d, want 1: %v", commits, rep.Adapt.Decisions)
	}
}
