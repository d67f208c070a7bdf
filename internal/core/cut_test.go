package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/pipeline"
	"repro/internal/sim/adapt"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/seq"
	"repro/internal/simtest"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// cutWorkloads are the in-process cut-equivalence inputs: a fine-delay
// DAG, a sequential circuit with flip-flops, and the same run booted from
// a mid-run snapshot.
var cutWorkloads = []struct {
	name string
	spec pipeline.Spec
	boot bool
}{
	{"dag-fine", pipeline.Spec{Circuit: "dag300", FineDelays: 6, Seed: 3, Vectors: 10, Activity: 0.5, Period: 30, LPs: 3}, false},
	{"seq-ff", pipeline.Spec{Circuit: "seq300", Seed: 5, Vectors: 12, Activity: 0.5, Period: 12, LPs: 3}, false},
	{"seq-ff-booted", pipeline.Spec{Circuit: "seq300", Seed: 5, Vectors: 12, Activity: 0.5, Period: 12, LPs: 3}, true},
}

// cutRef is a workload's oracle: the golden VCD and the sequential
// shadow's snapshots at every boundary.
type cutRef struct {
	run    *pipeline.Prepared
	every  circuit.Tick
	boot   *ckpt.State
	golden []byte
	shadow []*ckpt.State
}

func newCutRef(t *testing.T, spec pipeline.Spec, boot bool) *cutRef {
	t.Helper()
	run, err := pipeline.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := &cutRef{run: run, every: max(run.Until/9, 1)}
	res, err := seq.Run(run.Circuit, run.Stim, run.Until, seq.Config{System: logic.NineValued})
	if err != nil {
		t.Fatal(err)
	}
	r.golden = vcdOf(t, run.Circuit, res.Waveform)
	if boot {
		full := r.shadowFrom(t, nil)
		r.boot = full[len(full)/2]
	}
	r.shadow = r.shadowFrom(t, r.boot)
	if len(r.shadow) < 3 {
		t.Fatalf("only %d shadow boundaries", len(r.shadow))
	}
	return r
}

func (r *cutRef) shadowFrom(t *testing.T, boot *ckpt.State) []*ckpt.State {
	t.Helper()
	states, err := simtest.ShadowStates(r.run.Circuit, r.run.Stim, r.run.Until, r.every, logic.NineValued, boot)
	if err != nil {
		t.Fatal(err)
	}
	return states
}

func vcdOf(t *testing.T, c *circuit.Circuit, wf trace.Waveform) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteVCD(&buf, c, c.Outputs, wf, "1ns"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshots lists a checkpoint directory's files in boundary order.
func snapshots(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// checkFile requires a checkpoint file to hold exactly the bytes the
// shadow's snapshot at its boundary writes, and to restore the sequential
// engine to the golden VCD.
func (r *cutRef) checkFile(t *testing.T, path string, want *ckpt.State) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ckpt.Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Errorf("%s differs from the shadow's snapshot at %d", filepath.Base(path), want.Time)
		return
	}
	r.checkRestore(t, path, EngineSeq)
}

// checkRestore requires the snapshot at path to restore engine e to the
// golden VCD.
func (r *cutRef) checkRestore(t *testing.T, path string, e Engine) {
	t.Helper()
	st, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(r.run, Options{Engine: e, System: logic.NineValued, Restore: st})
	if err != nil {
		t.Fatalf("%s does not restore under %v: %v", filepath.Base(path), e, err)
	}
	if !bytes.Equal(vcdOf(t, r.run.Circuit, rep.Waveform), r.golden) {
		t.Errorf("%s restores %v to a VCD other than the golden", filepath.Base(path), e)
	}
}

// TestInProcessCutsMatchShadow is the in-process cut-equivalence matrix:
// every event-driven engine, hybrid included, writes its own checkpoints,
// and at every boundary the sequential shadow takes — the boundaries
// after the last event too — the file is byte-identical to the shadow's
// snapshot and restores to the golden VCD.
// The wide arm (wideCutArm) holds the 64-lane plane to the same rule.
func TestInProcessCutsMatchShadow(t *testing.T) {
	engines := []Engine{EngineSeq, EngineSync, EngineCMB, EngineCMBDemand, EngineCMBDetect,
		EngineTimeWarp, EngineTimeWarpLazy, EngineHybrid}
	for _, w := range cutWorkloads {
		ref := newCutRef(t, w.spec, w.boot)
		for _, e := range engines {
			t.Run(w.name+"/"+e.String(), func(t *testing.T) {
				dir := t.TempDir()
				if _, err := Run(ref.run, Options{
					Engine: e, System: logic.NineValued, Restore: ref.boot,
					CheckpointEvery: ref.every, CheckpointDir: dir,
				}); err != nil {
					t.Fatal(err)
				}
				names := snapshots(t, dir)
				if len(names) != len(ref.shadow) {
					t.Fatalf("%d checkpoints, the shadow takes %d", len(names), len(ref.shadow))
				}
				for i, want := range ref.shadow {
					ref.checkFile(t, names[i], want)
				}
			})
		}
	}
	wideCutArm(t)
}

// wideCutRef is cutRef on the 64-lane plane: the uninterrupted wide run's
// waveform and the wide sequential shadow's snapshots.
type wideCutRef struct {
	run    *pipeline.Prepared
	every  circuit.Tick
	golden trace.WaveformT[logic.Word]
	shadow []*ckpt.WideState
}

// wideSpec is a cut workload on 8 four-valued lanes.
func wideSpec(spec pipeline.Spec) pipeline.Spec {
	spec.Lanes, spec.System = 8, logic.FourValued
	return spec
}

func newWideCutRef(t *testing.T, spec pipeline.Spec) *wideCutRef {
	t.Helper()
	run, err := pipeline.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := &wideCutRef{run: run, every: max(run.Until/9, 1)}
	res, err := seq.RunWide(run.Circuit, run.WideStim, run.Until, seq.WideConfig{System: logic.FourValued})
	if err != nil {
		t.Fatal(err)
	}
	r.golden = res.Waveform
	r.shadow, err = simtest.WideShadowStates(run.Circuit, run.WideStim, run.Until, r.every, logic.FourValued, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.shadow) < 3 {
		t.Fatalf("only %d shadow boundaries", len(r.shadow))
	}
	return r
}

// checkFiles requires the checkpoint files in dir to be exactly the wide
// shadow's snapshots, byte for byte.
func (r *wideCutRef) checkFiles(t *testing.T, dir string) {
	t.Helper()
	names := snapshots(t, dir)
	if len(names) != len(r.shadow) {
		t.Fatalf("%d checkpoints, the shadow takes %d", len(names), len(r.shadow))
	}
	for i, want := range r.shadow {
		got, err := os.ReadFile(names[i])
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ckpt.Write(&buf, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("%s differs from the wide shadow's snapshot at %d", filepath.Base(names[i]), want.Time)
		}
	}
}

// checkWave requires a wide waveform to equal the uninterrupted run's in
// every lane.
func (r *wideCutRef) checkWave(t *testing.T, what string, got trace.WaveformT[logic.Word]) {
	t.Helper()
	init := func(g circuit.GateID) logic.Value {
		return logic.FourValued.Project(circuit.InitialValue(r.run.Circuit.Kinds[g]))
	}
	for k := 0; k < r.run.WideStim.Lanes; k++ {
		want := trace.WideWaveform(r.golden).Lane(k, init)
		if d := trace.Diff(want, trace.WideWaveform(got).Lane(k, init), 4); d != "" {
			t.Errorf("%s: lane %d differs from the uninterrupted run:\n%s", what, k, d)
			return
		}
	}
}

// wideCutEngines are the engines the wide arm cuts and restores under.
var wideCutEngines = []Engine{EngineSeq, EngineSync, EngineCMB, EngineTimeWarp}

// wideCutArm is TestInProcessCutsMatchShadow's wide arm: on 8 lanes of
// the DAG and flip-flop workloads, every engine writes exactly the wide
// shadow's snapshots, and each one, read back by ckpt.Load as -restore
// reads it, restores every engine to the uninterrupted run, lane for lane.
func wideCutArm(t *testing.T) {
	for _, w := range cutWorkloads[:2] {
		ref := newWideCutRef(t, wideSpec(w.spec))
		for _, e := range wideCutEngines {
			t.Run("wide-"+w.name+"/"+e.String(), func(t *testing.T) {
				dir := t.TempDir()
				rep, err := RunWide(ref.run, Options{
					Engine: e, System: logic.FourValued, CheckpointEvery: ref.every, CheckpointDir: dir,
				})
				if err != nil {
					t.Fatal(err)
				}
				ref.checkWave(t, "checkpointed run", rep.Waveform)
				ref.checkFiles(t, dir)
			})
		}
		t.Run("wide-"+w.name+"/restore", func(t *testing.T) {
			dir := t.TempDir()
			for _, st := range ref.shadow {
				path := filepath.Join(dir, fmt.Sprintf("ckpt-%08d.json", st.Time))
				if err := ckpt.WriteFile(path, st); err != nil {
					t.Fatal(err)
				}
				snap, err := ckpt.Load(path)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range wideCutEngines {
					rep, err := RunWide(ref.run, Options{Engine: e, System: logic.FourValued, Restore: snap})
					if err != nil {
						t.Fatalf("%s does not restore under %v: %v", filepath.Base(path), e, err)
					}
					ref.checkWave(t, fmt.Sprintf("%s restored under %v", filepath.Base(path), e), rep.Waveform)
				}
			}
		})
	}
}

// TestAdaptiveCutsMatchShadow: a scripted adaptive run migrates cmb ->
// timewarp -> sync, every segment booting from the previous segment
// engine's own cut. With the checkpoint cadence equal to the probe
// cadence every boot state is on disk, and with one that does not divide
// it the segments cut at the gcd of the two; either way every file is the
// shadow's snapshot and the spliced waveform is the golden one.
func TestAdaptiveCutsMatchShadow(t *testing.T) {
	ref := newCutRef(t, cutWorkloads[1].spec, false)
	for _, ckptEvery := range []circuit.Tick{ref.every, 2 * ref.every / 3} {
		t.Run(fmt.Sprint("every-", ckptEvery), func(t *testing.T) {
			dir := t.TempDir()
			rep, err := Run(ref.run, Options{
				Engine: EngineCMB, System: logic.NineValued,
				CheckpointEvery: ckptEvery, CheckpointDir: dir,
				Adapt: &adapt.Spec{
					Every: uint64(ref.every), NoSwitch: true, NoRebalance: true, NoWindow: true,
					Script: []adapt.Decision{
						{Round: 0, Kind: adapt.KindSwitch, To: "timewarp"},
						{Round: 1, Kind: adapt.KindSwitch, To: "sync"},
					},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Adapt.EngineSwitches != 2 || rep.Adapt.FinalEngine != EngineSync {
				t.Fatalf("switches=%d final=%v, want 2 ending on sync", rep.Adapt.EngineSwitches, rep.Adapt.FinalEngine)
			}
			if !bytes.Equal(vcdOf(t, ref.run.Circuit, rep.Waveform), ref.golden) {
				t.Error("adaptive waveform differs from the golden")
			}
			shadow, err := simtest.ShadowStates(ref.run.Circuit, ref.run.Stim, ref.run.Until, ckptEvery, logic.NineValued, nil)
			if err != nil {
				t.Fatal(err)
			}
			names := snapshots(t, dir)
			if len(names) != len(shadow) {
				t.Fatalf("%d checkpoints, the shadow takes %d", len(names), len(shadow))
			}
			for i, want := range shadow {
				ref.checkFile(t, names[i], want)
			}
		})
	}
}

// TestAdaptiveWide: a scripted adaptive run on 8 lanes migrates cmb ->
// timewarp -> sync, every segment booting from the previous segment
// engine's own wide cut. Every lane equals a scalar sequential run of that
// lane's stimulus, and the checkpoint files are the wide shadow's.
func TestAdaptiveWide(t *testing.T) {
	c, _, _ := workload(t)
	ws, lanes, err := vectors.ClockedBatch(c, vectors.ClockedConfig{Clock: "clk", Cycles: 12, HalfPeriod: 60, Activity: 0.5, Seed: 3}, 8, logic.TwoValued)
	if err != nil {
		t.Fatal(err)
	}
	until := WideHorizon(c, ws)
	every := until / 9
	dir := t.TempDir()
	rep, err := SimulateWide(c, ws, until, Options{
		Engine: EngineCMB, LPs: 3, System: logic.TwoValued,
		CheckpointEvery: every, CheckpointDir: dir,
		Adapt: &adapt.Spec{
			Every: uint64(every), NoSwitch: true, NoRebalance: true, NoWindow: true,
			Script: []adapt.Decision{
				{Round: 0, Kind: adapt.KindSwitch, To: "timewarp"},
				{Round: 1, Kind: adapt.KindSwitch, To: "sync"},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adapt.EngineSwitches != 2 || rep.Adapt.FinalEngine != EngineSync {
		t.Fatalf("switches=%d final=%v, want 2 ending on sync", rep.Adapt.EngineSwitches, rep.Adapt.FinalEngine)
	}
	t.Logf("%d segments, %d samples", rep.Adapt.Segments, len(rep.Waveform))
	init := func(g circuit.GateID) logic.Value {
		return logic.TwoValued.Project(circuit.InitialValue(c.Kinds[g]))
	}
	for k, stim := range lanes {
		ref, err := Simulate(c, stim, until, Options{Engine: EngineSeq, System: logic.TwoValued})
		if err != nil {
			t.Fatal(err)
		}
		if d := trace.Diff(ref.Waveform, trace.WideWaveform(rep.Waveform).Lane(k, init), 4); d != "" {
			t.Errorf("lane %d differs from its scalar reference:\n%s", k, d)
		}
	}
	shadow, err := simtest.WideShadowStates(c, ws, until, every, logic.TwoValued, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(shadow) < 3 {
		t.Fatalf("only %d shadow boundaries", len(shadow))
	}
	ref := &wideCutRef{shadow: shadow}
	ref.checkFiles(t, dir)
}

// TestInProcessKillMidEngine: a cmb run killed by the event limit part-way
// through its own engine run leaves the boundaries it cut before the kill
// on disk — the writer drains on failure — each one the shadow's
// snapshot, and the last restores to the golden VCD under seq, sync, cmb
// and timewarp. No boundary lies at or past the time the sequential
// engine reaches when it exceeds the same limit: a whole cut needs every
// event at or before it executed, and cmb counts each ghost copy too.
func TestInProcessKillMidEngine(t *testing.T) {
	spec := cutWorkloads[1].spec
	spec.LPs = 2
	ref := newCutRef(t, spec, false)
	res, err := seq.Run(ref.run.Circuit, ref.run.Stim, ref.run.Until, seq.Config{System: logic.NineValued})
	if err != nil {
		t.Fatal(err)
	}
	// cmb does not count the time-zero stimulus its settling step takes.
	limit, settle := res.Counters.EventsApplied*3/4, uint64(0)
	for _, ch := range ref.run.Stim.Changes {
		if ch.Time == 0 {
			settle++
		}
	}
	var se *SimError
	_, err = seq.Run(ref.run.Circuit, ref.run.Stim, ref.run.Until, seq.Config{System: logic.NineValued, MaxEvents: limit + settle})
	if !errors.As(err, &se) || se.Kind != KindEventLimit {
		t.Fatalf("sequential run under the limit: %v", err)
	}
	kill := se.ModeledTime

	dir := t.TempDir()
	_, err = Run(ref.run, Options{
		Engine: EngineCMB, System: logic.NineValued, MaxEvents: limit,
		CheckpointEvery: ref.every, CheckpointDir: dir,
	})
	if !errors.As(err, &se) || se.Kind != KindEventLimit {
		t.Fatalf("killed run returned %v, want the event limit", err)
	}
	names := snapshots(t, dir)
	if len(names) == 0 {
		t.Fatal("the kill left no checkpoints behind")
	}
	t.Logf("killed before t=%d with %d of %d boundaries on disk", kill, len(names), len(ref.shadow))
	for i, path := range names {
		want := ref.shadow[i]
		if circuit.Tick(want.Time) >= kill {
			t.Fatalf("boundary %d on disk at or past the kill point %d", want.Time, kill)
		}
		ref.checkFile(t, path, want)
	}
	for _, e := range []Engine{EngineSeq, EngineSync, EngineCMB, EngineTimeWarp} {
		ref.checkRestore(t, names[len(names)-1], e)
	}
}

// TestRejectionsWriteNothing: every configuration the run refuses is
// refused before any work, so the checkpoint directory stays empty.
func TestRejectionsWriteNothing(t *testing.T) {
	c, stim, until := workload(t)
	shadow, err := simtest.ShadowStates(c, stim, until, 200, logic.TwoValued, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"adapt-serial":       {Engine: EngineSeq, Adapt: &adapt.Spec{}},
		"oblivious":          {Engine: EngineOblivious},
		"oblivious-restore":  {Engine: EngineOblivious, Restore: shadow[0]},
		"adapt-to-oblivious": {Engine: EngineCMB, Adapt: &adapt.Spec{Script: []adapt.Decision{{Kind: adapt.KindSwitch, To: "oblivious"}}}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts.System, opts.LPs = logic.TwoValued, 4
			opts.CheckpointEvery, opts.CheckpointDir = 200, dir
			if _, err := Simulate(c, stim, until, opts); err == nil {
				t.Fatal("accepted")
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("a rejected run left %d files in the checkpoint directory", len(entries))
			}
		})
	}
}
