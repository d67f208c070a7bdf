package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/cmb"
	"repro/internal/sim/seq"
	"repro/internal/sim/timewarp"
	"repro/internal/simtest"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/simtest/chaos/netfault"
	"repro/internal/trace"
)

// restrictToShard projects a full shadow snapshot onto one shard: owned
// planes kept (others zeroed), events and waveform filtered to owned
// gates, checksum resealed. It is what a shard's own checkpoint at the
// same boundary holds, up to the order of same-time events and the
// EndTime, which is the shard's own rather than the fleet's.
func restrictToShard(st *ckpt.State, owned []bool) *ckpt.State {
	out := &ckpt.State{
		Version: st.Version, Fingerprint: st.Fingerprint,
		Time: st.Time, Until: st.Until, System: st.System, EndTime: st.EndTime,
		Vals:      make([]logic.Value, len(st.Vals)),
		PrevClk:   make([]logic.Value, len(st.PrevClk)),
		Projected: make([]logic.Value, len(st.Projected)),
	}
	for g, own := range owned {
		if !own {
			continue
		}
		out.Vals[g] = st.Vals[g]
		out.PrevClk[g] = st.PrevClk[g]
		out.Projected[g] = st.Projected[g]
	}
	for _, ev := range st.Events {
		if owned[ev.Gate] {
			out.Events = append(out.Events, ev)
		}
	}
	for _, sm := range st.Waveform {
		if owned[sm.Gate] {
			out.Waveform = append(out.Waveform, sm)
		}
	}
	out.Seal()
	return out
}

// cutEngine runs one engine in-process over a prepared run, booted from
// boot when non-nil and perturbed by chaos when non-nil, with its native
// checkpoints going to cuts.
type cutEngine struct {
	name string
	run  func(run *pipeline.Prepared, q eventq.Impl, boot *ckpt.State, chaos *inject.Hook, cuts *ckpt.Cuts[logic.Value]) error
}

func cmbCuts(name string, mode cmb.Mode) cutEngine {
	return cutEngine{name, func(run *pipeline.Prepared, q eventq.Impl, boot *ckpt.State, chaos *inject.Hook, cuts *ckpt.Cuts[logic.Value]) error {
		_, err := cmb.Run(run.Circuit, run.Stim, run.Until, cmb.Config{
			Partition: run.Part, Mode: mode, Queue: q, Boot: boot, Chaos: chaos, Cuts: cuts,
		})
		return err
	}}
}

func timewarpCuts(name string, cancel timewarp.Cancellation) cutEngine {
	return cutEngine{name, func(run *pipeline.Prepared, q eventq.Impl, boot *ckpt.State, chaos *inject.Hook, cuts *ckpt.Cuts[logic.Value]) error {
		_, err := timewarp.Run(run.Circuit, run.Stim, run.Until, timewarp.Config{
			Partition: run.Part, Cancellation: cancel, Queue: q, Boot: boot, Chaos: chaos, Cuts: cuts,
		})
		return err
	}}
}

// cutEngines are the engines that take their own checkpoints.
var cutEngines = []cutEngine{
	cmbCuts("cmb", cmb.NullEager), cmbCuts("cmb-demand", cmb.NullDemand), cmbCuts("cmb-detect", cmb.DeadlockRecovery),
	timewarpCuts("timewarp", timewarp.Aggressive), timewarpCuts("timewarp-lazy", timewarp.Lazy),
}

// nativeCuts runs engine e over run with one cut writer per shard of the
// run's shard map, as the fleet's workers would, and returns the
// checkpoint directory.
func nativeCuts(t *testing.T, run *pipeline.Prepared, e cutEngine, q eventq.Impl, boot *ckpt.State, chaos *inject.Hook, every circuit.Tick, delta bool) string {
	t.Helper()
	dir := t.TempDir()
	shards := 0
	for _, s := range run.ShardOf {
		shards = max(shards, s+1)
	}
	head := ckpt.State{Fingerprint: ckpt.Fingerprint(run.Circuit), Until: uint64(run.Until), System: uint8(logic.NineValued)}
	writers := make([]*ckpt.Writer[logic.Value], shards)
	for s := range writers {
		cover := 0
		for _, lp := range run.Part.Assign {
			if run.ShardOf[lp] == s {
				cover++
			}
		}
		writers[s] = newShardWriter(dir, s, len(run.Circuit.Kinds), cover, delta, head)
	}
	err := e.run(run, q, boot, chaos, &ckpt.Cuts[logic.Value]{Every: every, Sink: func(c *ckpt.Cut[logic.Value]) {
		writers[run.ShardOf[c.LP]].Put(c)
	}})
	for _, w := range writers {
		if _, werr := w.Finish(); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// canonical is the shadow snapshot in the order a merge produces:
// pending events sorted by time, then gate, and sealed.
func canonical(st *ckpt.State) *ckpt.State {
	out := *st
	out.Events = append([]ckpt.Event(nil), st.Events...)
	ckpt.SortEvents(out.Events)
	out.Seal()
	return &out
}

// goldenVCD renders a waveform of the run's outputs.
func goldenVCD(t *testing.T, c *circuit.Circuit, wf trace.Waveform) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteVCD(&buf, c, c.Outputs, wf, "1ns"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkCutsMatchShadow requires the checkpoint directory of a run to hold
// every boundary the shadow oracle took, each merging into a cut
// byte-identical to the oracle's, and any boundary past the oracle's last
// to restore the sequential engine to the golden VCD.
func checkCutsMatchShadow(t *testing.T, dir string, run *pipeline.Prepared, shadow []*ckpt.State, golden []byte) {
	t.Helper()
	gateShard := gateShards(run)
	shards := 0
	for _, s := range gateShard {
		shards = max(shards, s+1)
	}
	files, err := scanShardFiles(dir, shards)
	if err != nil || files == nil {
		t.Fatalf("scanning %s: %v", dir, err)
	}
	written := map[uint64]bool{}
	for _, b := range files.complete {
		written[b] = true
	}
	last := uint64(0)
	for _, want := range shadow {
		last = want.Time
		if !written[want.Time] {
			t.Errorf("boundary %d: no complete native cut", want.Time)
			continue
		}
		got, _, err := files.merge(want.Time, gateShard)
		if err != nil {
			t.Errorf("boundary %d: %v", want.Time, err)
			continue
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(canonical(want))
		if !bytes.Equal(gb, wb) {
			t.Errorf("boundary %d: native cut differs from the shadow's: %s", want.Time, cutDiff(got, canonical(want)))
		}
	}
	for _, b := range files.complete {
		if b <= last {
			continue
		}
		st, _, err := files.merge(b, gateShard)
		if err != nil {
			t.Errorf("trailing boundary %d: %v", b, err)
			continue
		}
		res, err := seq.Run(run.Circuit, run.Stim, run.Until, seq.Config{System: logic.NineValued, Boot: st})
		if err != nil {
			t.Errorf("trailing boundary %d does not restore: %v", b, err)
			continue
		}
		if !bytes.Equal(goldenVCD(t, run.Circuit, append(st.Prefix(), res.Waveform...)), golden) {
			t.Errorf("trailing boundary %d restores to a VCD other than the golden", b)
		}
	}
}

// cutDiff names the first field two cuts disagree on.
func cutDiff(got, want *ckpt.State) string {
	switch {
	case got.EndTime != want.EndTime:
		return fmt.Sprintf("end time %d, want %d", got.EndTime, want.EndTime)
	case len(got.Events) != len(want.Events):
		return fmt.Sprintf("%d pending events, want %d", len(got.Events), len(want.Events))
	case len(got.Waveform) != len(want.Waveform):
		return fmt.Sprintf("%d samples, want %d", len(got.Waveform), len(want.Waveform))
	}
	for g := range want.Vals {
		if got.Vals[g] != want.Vals[g] || got.PrevClk[g] != want.PrevClk[g] || got.Projected[g] != want.Projected[g] {
			return fmt.Sprintf("gate %d planes %v/%v/%v, want %v/%v/%v", g,
				got.Vals[g], got.PrevClk[g], got.Projected[g], want.Vals[g], want.PrevClk[g], want.Projected[g])
		}
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			return fmt.Sprintf("event %d is %+v, want %+v", i, got.Events[i], want.Events[i])
		}
	}
	for i := range want.Waveform {
		if got.Waveform[i] != want.Waveform[i] {
			return fmt.Sprintf("sample %d is %+v, want %+v", i, got.Waveform[i], want.Waveform[i])
		}
	}
	return "header or checksum"
}

// TestNativeCutsMatchShadow is the cut-equivalence matrix: every engine
// that takes its own checkpoints (the three cmb modes, Time Warp with
// either cancellation) on every pending-event set, over a fine-delay DAG,
// a sequential circuit with flip-flops and a run booted from a mid-run
// snapshot, on one and two shards. At every boundary the sequential
// shadow takes, the shards' cuts merge into exactly the shadow's
// snapshot; boundaries the shadow does not take restore to the golden.
func TestNativeCutsMatchShadow(t *testing.T) {
	queues := []eventq.Impl{eventq.ImplHeap, eventq.ImplCalendar, eventq.ImplWheel}
	workloads := []struct {
		name string
		spec pipeline.Spec
		boot bool
	}{
		{"dag-fine", pipeline.Spec{Circuit: "dag300", FineDelays: 6, Seed: 3, Vectors: 10, Activity: 0.5, Period: 30}, false},
		{"seq-ff", pipeline.Spec{Circuit: "seq300", Seed: 5, Vectors: 12, Activity: 0.5, Period: 12}, false},
		{"seq-ff-booted", pipeline.Spec{Circuit: "seq300", Seed: 5, Vectors: 12, Activity: 0.5, Period: 12}, true},
	}
	fleets := []struct{ shards, lps int }{{1, 2}, {1, 3}, {2, 4}}
	for _, w := range workloads {
		ref := prepareSpec(t, w.spec)
		every := max(ref.Until/9, 1)
		res, err := seq.Run(ref.Circuit, ref.Stim, ref.Until, seq.Config{System: logic.NineValued})
		if err != nil {
			t.Fatal(err)
		}
		golden := goldenVCD(t, ref.Circuit, res.Waveform)
		var boot *ckpt.State
		if w.boot {
			full, err := simtest.ShadowStates(ref.Circuit, ref.Stim, ref.Until, every, logic.NineValued, nil)
			if err != nil {
				t.Fatal(err)
			}
			boot = full[len(full)/2]
		}
		shadow, err := simtest.ShadowStates(ref.Circuit, ref.Stim, ref.Until, every, logic.NineValued, boot)
		if err != nil {
			t.Fatal(err)
		}
		if len(shadow) < 3 {
			t.Fatalf("%s: only %d shadow boundaries", w.name, len(shadow))
		}
		for _, f := range fleets {
			spec := w.spec
			spec.Shards, spec.LPs = f.shards, f.lps
			run := prepareSpec(t, spec)
			for _, e := range cutEngines {
				for _, q := range queues {
					name := fmt.Sprintf("%s/%dx%d/%s/%s", w.name, f.shards, f.lps, e.name, q)
					t.Run(name, func(t *testing.T) {
						dir := nativeCuts(t, run, e, q, boot, nil, every, f.shards > 1)
						checkCutsMatchShadow(t, dir, run, shadow, golden)
					})
				}
			}
		}
	}
}

// TestNativeCutsUnderChaos: seeded chaos plans — delayed, split and
// reordered deliveries and stalled LPs — change when LPs run and, under
// Time Warp, how far they speculate and what they roll back, but never
// what any cut holds: every engine's checkpoints still match the shadow.
func TestNativeCutsUnderChaos(t *testing.T) {
	spec := pipeline.Spec{Circuit: "seq300", Seed: 5, Vectors: 12, Activity: 0.5, Period: 12, LPs: 4, Shards: 1}
	run := prepareSpec(t, spec)
	every := max(run.Until/9, 1)
	res, err := seq.Run(run.Circuit, run.Stim, run.Until, seq.Config{System: logic.NineValued})
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenVCD(t, run.Circuit, res.Waveform)
	shadow, err := simtest.ShadowStates(run.Circuit, run.Stim, run.Until, every, logic.NineValued, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range cutEngines {
		for seed := uint64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", e.name, seed), func(t *testing.T) {
				hook := inject.NewHook(seed, inject.NewPlan(seed, spec.LPs, 16))
				dir := nativeCuts(t, run, e, eventq.ImplHeap, nil, hook, every, false)
				checkCutsMatchShadow(t, dir, run, shadow, golden)
			})
		}
	}
}

// killAtBoundary spawns in-process workers and kills shard 0 of the first
// attempt as soon as the work directory holds a boundary that every
// shard's engine has checkpointed: a loss in the middle of the engine
// run, with a real cut behind it. killed receives the boundary the kill
// waited for.
type killAtBoundary struct {
	dir    string
	shards int
	killed chan uint64
}

func (k *killAtBoundary) Spawn(network, addr string, shard, attempt int) (Proc, error) {
	p, err := InProcSpawner{}.Spawn(network, addr, shard, attempt)
	if err != nil || shard != 0 || attempt != 0 {
		return p, err
	}
	go func() {
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-p.Done():
				return
			case <-tick.C:
			}
			if f, _ := scanShardFiles(k.dir, k.shards); f != nil && len(f.complete) > 0 {
				p.Kill()
				if k.killed != nil {
					k.killed <- f.complete[len(f.complete)-1]
				}
				return
			}
		}
	}()
	return p, nil
}

// TestDistKillMidEngineRecovers: a worker killed in the middle of its
// engine run, as soon as the first boundary is checkpointed across the
// fleet, recovers from a real mid-run cut. dist_boot_time lies strictly
// after 0 and strictly before the horizon's last boundary, the recovered
// VCD is the sequential one, and every shard checkpoint in the directory —
// the killed attempt's and the recovered one's — is byte-identical to an
// uninterrupted run's: checkpoints do not depend on the attempt.
func TestDistKillMidEngineRecovers(t *testing.T) {
	spec := testSpec()
	spec.Vectors = 25
	until, ref := goldenSpec(t, spec)
	golden := goldenVCD(t, prepareSpec(t, spec).Circuit, ref.Waveform)
	// Boundaries closer than the stimulus period leave shards idle between
	// some of them, where a checkpoint's EndTime is the shard's own from
	// before the boot. The delta arm checks each boundary by replaying its
	// chain from the full snapshot, so it takes fewer.
	for _, tc := range []struct {
		engine string
		delta  bool
		every  uint64
	}{{"cmb", false, 10}, {"cmb", true, 40}, {"timewarp", false, 10}} {
		every := tc.every
		last := until / every * every
		name := tc.engine
		if tc.delta {
			name += "/mesh-delta"
		}
		t.Run(name, func(t *testing.T) {
			mk := func() Options {
				opts := baseOpts(t, tc.engine, 2, until)
				opts.Vectors = spec.Vectors
				opts.CheckpointEvery = every
				opts.HeartbeatEvery = 2 * time.Millisecond
				opts.Mesh, opts.CkptDelta = tc.delta, tc.delta
				return opts
			}
			clean := mk()
			if _, err := Run(clean); err != nil {
				t.Fatal(err)
			}

			opts := mk()
			reg := metrics.NewRegistry(tc.engine + "-dist")
			opts.Metrics = reg
			opts.Restarts = 2
			kill := &killAtBoundary{dir: opts.WorkDir, shards: opts.Shards, killed: make(chan uint64, 1)}
			opts.Spawn = kill
			res, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case b := <-kill.killed:
				t.Logf("killed shard 0 once boundary %d was checkpointed", b)
			default:
				t.Fatal("the first attempt finished before any boundary was checkpointed")
			}
			if res.Recoveries < 1 || res.FinalMode != "dist" {
				t.Errorf("kill did not force a recovery: recoveries=%d mode=%s", res.Recoveries, res.FinalMode)
			}
			if bt := reg.Report().Gauges["dist_boot_time"]; !(bt > 0 && bt < float64(last)) {
				t.Errorf("dist_boot_time = %v, want a mid-run cut in (0, %d)", bt, last)
			}
			if !bytes.Equal(goldenVCD(t, res.Prepared.Circuit, res.Waveform), golden) {
				t.Error("recovered VCD differs from the sequential one")
			}

			gateShard := gateShards(res.Prepared)
			got, err := scanShardFiles(opts.WorkDir, opts.Shards)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scanShardFiles(clean.WorkDir, clean.Shards)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.complete) != int(last/every) {
				t.Errorf("uninterrupted run checkpointed %d boundaries, want %d", len(want.complete), last/every)
			}
			for _, b := range got.complete {
				_, gs, err := got.merge(b, gateShard)
				if err != nil {
					t.Errorf("boundary %d of the recovered run: %v", b, err)
					continue
				}
				_, ws, err := want.merge(b, gateShard)
				if err != nil {
					t.Errorf("boundary %d of the uninterrupted run: %v", b, err)
					continue
				}
				for s := range ws {
					gb, _ := json.Marshal(gs[s])
					wb, _ := json.Marshal(ws[s])
					if !bytes.Equal(gb, wb) {
						t.Errorf("shard %d at boundary %d differs from the uninterrupted run's: %s", s, b, cutDiff(gs[s], ws[s]))
					}
				}
			}
		})
	}
}

// TestRecoveryRewritesIdenticalCheckpoints: a fleet recovering from a
// merged boundary rewrites every later boundary exactly as an
// uninterrupted run wrote it. The boundaries are closer than the stimulus
// period, so a shard is often idle across one, and its checkpoint's
// EndTime is its own last timestep from before the boot — the boot end
// the hub hands it — not the merged cut's fleet-wide maximum.
func TestRecoveryRewritesIdenticalCheckpoints(t *testing.T) {
	until, ref := golden(t)
	const every, boot = 5, 50
	clean := baseOpts(t, "cmb", 2, until)
	clean.CheckpointEvery = every
	if _, err := Run(clean); err != nil {
		t.Fatal(err)
	}

	// The recovering fleet finds the uninterrupted run's boundaries up to
	// the boot boundary, and its first attempt dies at its first frame.
	opts := baseOpts(t, "cmb", 2, until)
	opts.CheckpointEvery = every
	opts.Restarts = 1
	opts.HeartbeatEvery = time.Hour
	opts.Plan = netfault.Plan{{Op: netfault.OpKill, Shard: 0, AfterFrames: 0, Attempt: 0}}
	for b := uint64(every); b <= boot; b += every {
		for s := 0; s < opts.Shards; s++ {
			name := shardCkptName(s, b)
			data, err := os.ReadFile(filepath.Join(clean.WorkDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(opts.WorkDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg := metrics.NewRegistry("cmb-dist")
	opts.Metrics = reg
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", res.Recoveries)
	}
	if bt := reg.Report().Gauges["dist_boot_time"]; bt < boot {
		t.Fatalf("dist_boot_time = %v, want at least the planted boundary %d", bt, boot)
	}
	checkMatchesGolden(t, res, ref)
	entries, err := os.ReadDir(clean.WorkDir)
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, e := range entries {
		var s int
		var b uint64
		if _, err := fmt.Sscanf(e.Name(), "shard-%d-ckpt-%d.json", &s, &b); err != nil {
			continue
		}
		want, err := os.ReadFile(filepath.Join(clean.WorkDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(opts.WorkDir, e.Name()))
		if err != nil {
			t.Errorf("recovered run did not write %s", e.Name())
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the uninterrupted run's", e.Name())
		}
		compared++
	}
	if compared < 4*opts.Shards {
		t.Errorf("compared only %d checkpoint files", compared)
	}
}
