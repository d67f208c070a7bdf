package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/seq"
	"repro/internal/sim/timewarp"
	"repro/internal/simtest/chaos"
	"repro/internal/simtest/chaos/netfault"
	"repro/internal/trace"
)

// testSpec is the shared workload: small enough to keep the fleet tests
// fast, large enough that every shard owns real work.
func testSpec() pipeline.Spec {
	return pipeline.Spec{
		Circuit: "ripple8", Seed: 1,
		Vectors: 15, Activity: 0.5, Period: 40,
		Partition: partition.MethodFM,
	}
}

// prepare runs the set-up path over the test workload, divided into lps
// LPs on shards shards (0, 0 prepares the serial reference's view).
func prepare(t *testing.T, shards, lps int) *pipeline.Prepared {
	t.Helper()
	spec := testSpec()
	spec.Shards, spec.LPs = shards, lps
	return prepareSpec(t, spec)
}

func prepareSpec(t *testing.T, spec pipeline.Spec) *pipeline.Prepared {
	t.Helper()
	run, err := pipeline.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// gateShards is the gate -> shard map of a prepared, sharded run.
func gateShards(run *pipeline.Prepared) []int {
	out := make([]int, run.Circuit.NumGates())
	for g := range out {
		out[g] = run.ShardOf[run.Part.Assign[g]]
	}
	return out
}

// golden runs the sequential reference over the test workload and
// returns the horizon and the reference result.
func golden(t *testing.T) (uint64, *seq.Result) {
	t.Helper()
	return goldenSpec(t, testSpec())
}

func goldenSpec(t *testing.T, spec pipeline.Spec) (uint64, *seq.Result) {
	t.Helper()
	run := prepareSpec(t, spec)
	ref, err := seq.Run(run.Circuit, run.Stim, run.Until, seq.Config{System: logic.NineValued})
	if err != nil {
		t.Fatal(err)
	}
	return uint64(run.Until), ref
}

// baseOpts builds distributed Options over the test workload.
func baseOpts(t *testing.T, engine string, shards int, until uint64) Options {
	t.Helper()
	s := testSpec()
	return Options{
		Shards:   shards,
		Engine:   engine,
		Circuit:  s.Circuit,
		Seed:     s.Seed,
		Vectors:  s.Vectors,
		Activity: s.Activity,
		Period:   s.Period,
		Until:    until,
		LPs:      2 * shards,
		WorkDir:  t.TempDir(),
	}
}

// checkMatchesGolden requires the distributed result to agree with the
// sequential reference on every final value and every waveform sample —
// the bit-exactness contract recovery and chaos must preserve.
func checkMatchesGolden(t *testing.T, res *Result, ref *seq.Result) {
	t.Helper()
	if !reflect.DeepEqual(res.Values, ref.Values) {
		t.Errorf("final values diverge from the sequential reference")
	}
	if !trace.Equal(res.Waveform, ref.Waveform) {
		t.Errorf("waveform diverges: %d samples vs %d reference",
			len(res.Waveform), len(ref.Waveform))
	}
}

// TestDistMatchesSequential: every distributable engine, sharded two
// ways over real loopback sockets, must reproduce the sequential
// trajectory exactly.
func TestDistMatchesSequential(t *testing.T) {
	until, ref := golden(t)
	for _, engine := range []string{"cmb", "cmb-demand", "timewarp", "timewarp-lazy"} {
		t.Run(engine, func(t *testing.T) {
			res, err := Run(baseOpts(t, engine, 2, until))
			if err != nil {
				t.Fatal(err)
			}
			if res.FinalMode != "dist" || res.Attempts != 1 || res.Recoveries != 0 {
				t.Errorf("unexpected run shape: mode=%s attempts=%d recoveries=%d",
					res.FinalMode, res.Attempts, res.Recoveries)
			}
			checkMatchesGolden(t, res, ref)
		})
	}
}

// TestDistUnixNetwork: the same contract over a unix-domain socket in
// the work directory.
func TestDistUnixNetwork(t *testing.T) {
	until, ref := golden(t)
	opts := baseOpts(t, "timewarp", 3, until)
	opts.Network = "unix"
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesGolden(t, res, ref)
}

// TestDistChaosWithoutKills: a seeded plan of stalls, connection drops,
// duplicates, and partitions — everything the reliable layer must
// absorb without a fleet restart. One attempt, exact waveform.
func TestDistChaosWithoutKills(t *testing.T) {
	until, ref := golden(t)
	for _, engine := range []string{"cmb", "timewarp"} {
		t.Run(engine, func(t *testing.T) {
			opts := baseOpts(t, engine, 2, until)
			opts.Plan = netfault.NewPlan(42, opts.Shards, 8, false)
			opts.HeartbeatTimeout = 2 * time.Second
			res, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempts != 1 {
				t.Errorf("survivable chaos forced %d attempts", res.Attempts)
			}
			checkMatchesGolden(t, res, ref)
		})
	}
}

// TestDistKillRecovers: a planned worker kill on the first attempt with
// checkpointing armed. The hub must classify the loss, merge the newest
// complete boundary, relaunch the fleet, and still produce the exact
// sequential waveform.
func TestDistKillRecovers(t *testing.T) {
	until, ref := golden(t)
	for _, engine := range []string{"cmb", "timewarp"} {
		t.Run(engine, func(t *testing.T) {
			opts := baseOpts(t, engine, 2, until)
			opts.CheckpointEvery = 200
			opts.Restarts = 2
			opts.Plan = netfault.Plan{
				{Op: netfault.OpKill, Shard: 0, AfterFrames: 5, Attempt: 0},
			}
			res, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Recoveries < 1 || res.Attempts < 2 {
				t.Errorf("kill did not force a recovery: attempts=%d recoveries=%d",
					res.Attempts, res.Recoveries)
			}
			if res.FinalMode != "dist" {
				t.Errorf("recovered run degraded to %s", res.FinalMode)
			}
			checkMatchesGolden(t, res, ref)
		})
	}
}

// TestDistShardLossError: a kill on every attempt with no fallback must
// exhaust the restart budget and surface a structured shard-loss error.
func TestDistShardLossError(t *testing.T) {
	until, _ := golden(t)
	opts := baseOpts(t, "cmb", 2, until)
	opts.CheckpointEvery = 200
	opts.Restarts = 1
	opts.Plan = netfault.Plan{
		{Op: netfault.OpKill, Shard: 1, AfterFrames: 3, Attempt: -1},
	}
	_, err := Run(opts)
	var se *core.SimError
	if !errors.As(err, &se) {
		t.Fatalf("want a SimError, got %v", err)
	}
	if se.Kind != core.KindShardLoss {
		t.Errorf("kind = %v, want shard loss; error: %v", se.Kind, se)
	}
}

// TestDistShardLossFallback: the same unsurvivable plan with Fallback
// set must walk the degradation ladder (dist -> sync -> ...) and still
// hand back the exact sequential result. With heartbeats off every frame
// the kill counts is an engine frame, so it lands after the workers'
// sequential shadows wrote every boundary, and the ladder must boot from
// the newest merged boundary as a restart would, not from t=0.
func TestDistShardLossFallback(t *testing.T) {
	until, ref := golden(t)
	reg := metrics.NewRegistry("cmb-dist")
	opts := baseOpts(t, "cmb", 2, until)
	opts.CheckpointEvery = 200
	opts.Restarts = 0
	opts.Fallback = true
	opts.HeartbeatEvery = time.Hour
	opts.Metrics = reg
	opts.Plan = netfault.Plan{
		{Op: netfault.OpKill, Shard: 0, AfterFrames: 3, Attempt: -1},
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMode == "dist" || res.Fallbacks < 1 {
		t.Errorf("expected a degraded run, got mode=%s fallbacks=%d",
			res.FinalMode, res.Fallbacks)
	}
	if res.Degraded == "" {
		t.Error("degraded result does not carry the shard-loss cause")
	}
	if bt := reg.Report().Gauges["dist_boot_time"]; bt <= 0 {
		t.Errorf("dist_boot_time = %v: the fallback ignored the merged boundary", bt)
	}
	checkMatchesGolden(t, res, ref)
}

// shadowStates captures real sequential-shadow snapshots at every
// multiple of `every` for the test workload.
func shadowStates(t *testing.T, every uint64) []*ckpt.State {
	t.Helper()
	run := prepare(t, 0, 0)
	var states []*ckpt.State
	_, err := seq.Run(run.Circuit, run.Stim, run.Until, seq.Config{
		System:          logic.NineValued,
		CheckpointEvery: circuit.Tick(every),
		Checkpoint: func(st *ckpt.State) error {
			states = append(states, st)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) < 2 {
		t.Fatalf("workload too small: %d boundaries", len(states))
	}
	return states
}

// TestLatestBoundarySkipsCorrupt: the merge must fall back to the next
// older boundary when any shard file of the newest one is truncated,
// and report a fresh start (nil, no error) when every boundary is
// unusable — a bad snapshot must never wedge recovery.
func TestLatestBoundarySkipsCorrupt(t *testing.T) {
	run := prepare(t, 2, 4)
	c, part, shardOf, gateShard := run.Circuit, run.Part, run.ShardOf, gateShards(run)

	states := shadowStates(t, 200)
	dir := t.TempDir()
	for _, st := range states {
		for s := 0; s < 2; s++ {
			owned := ownedGates(part.Assign, shardOf, s, c.NumGates())
			if err := ckpt.WriteFile(filepath.Join(dir, shardCkptName(s, st.Time)),
				restrictToShard(st, owned)); err != nil {
				t.Fatal(err)
			}
		}
	}

	merged, at, err := latestBoundary(dir, 2, gateShard)
	if err != nil || merged == nil {
		t.Fatalf("clean directory: merged=%v err=%v", merged, err)
	}
	newest := states[len(states)-1].Time
	if at != newest {
		t.Fatalf("picked boundary %d, want newest %d", at, newest)
	}

	// Truncate one shard file of the newest boundary: the next older
	// boundary must be chosen instead.
	if err := os.WriteFile(filepath.Join(dir, shardCkptName(1, newest)), []byte("{trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	merged, at, err = latestBoundary(dir, 2, gateShard)
	if err != nil || merged == nil {
		t.Fatalf("after corruption: merged=%v err=%v", merged, err)
	}
	if at != states[len(states)-2].Time {
		t.Errorf("picked boundary %d, want fallback %d", at, states[len(states)-2].Time)
	}
	if merged.Verify() != nil {
		t.Error("merged snapshot fails its own checksum")
	}

	// Corrupt every boundary: recovery must report a fresh start.
	for _, st := range states {
		for s := 0; s < 2; s++ {
			if err := os.Truncate(filepath.Join(dir, shardCkptName(s, st.Time)), 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	merged, _, err = latestBoundary(dir, 2, gateShard)
	if err != nil {
		t.Fatalf("all-corrupt directory errored: %v", err)
	}
	if merged != nil {
		t.Error("all-corrupt directory still produced a boundary")
	}

	// A directory that never existed is also a fresh start.
	merged, _, err = latestBoundary(filepath.Join(dir, "nope"), 2, gateShard)
	if err != nil || merged != nil {
		t.Errorf("missing directory: merged=%v err=%v", merged, err)
	}
}

// TestMergeRoundTrip: restricting a real shadow snapshot to each shard
// and merging the restrictions back must reproduce the full cut exactly.
func TestMergeRoundTrip(t *testing.T) {
	run := prepare(t, 3, 6)
	c, part, shardOf, gateShard := run.Circuit, run.Part, run.ShardOf, gateShards(run)
	st := shadowStates(t, 200)[1]

	states := make([]*ckpt.State, 3)
	for s := 0; s < 3; s++ {
		states[s] = restrictToShard(st, ownedGates(part.Assign, shardOf, s, c.NumGates()))
	}
	merged, err := mergeShardStates(states, gateShard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Vals, st.Vals) ||
		!reflect.DeepEqual(merged.PrevClk, st.PrevClk) ||
		!reflect.DeepEqual(merged.Projected, st.Projected) {
		t.Error("merged value planes differ from the original cut")
	}
	// The merge re-sorts canonically by (time, gate); compare against a
	// copy of the original in that order.
	wantEvents := append([]ckpt.Event(nil), st.Events...)
	sort.SliceStable(wantEvents, func(i, j int) bool {
		if wantEvents[i].Time != wantEvents[j].Time {
			return wantEvents[i].Time < wantEvents[j].Time
		}
		return wantEvents[i].Gate < wantEvents[j].Gate
	})
	if !reflect.DeepEqual(merged.Events, wantEvents) {
		t.Errorf("merged events differ: %d vs %d", len(merged.Events), len(wantEvents))
	}
	if !reflect.DeepEqual(merged.Waveform, st.Waveform) {
		t.Errorf("merged waveform differs: %d vs %d samples", len(merged.Waveform), len(st.Waveform))
	}
	if merged.Verify() != nil {
		t.Error("merged snapshot fails its checksum")
	}
}

// TestDecodeJobChecksHeaderAgainstRun: the hybrid and recovery variants
// need global in-process coordination, and a worker outside the fleet or
// an LP placed on a shard the fleet does not have cannot run; a job saying
// so must be rejected at decode time, before any simulation starts.
func TestDecodeJobChecksHeaderAgainstRun(t *testing.T) {
	payload, err := prepare(t, 2, 4).Encode()
	if err != nil {
		t.Fatal(err)
	}
	good := Job{Engine: "cmb", Shards: 2, Shard: 1}
	for name, mutate := range map[string]func(*Job){
		"":                func(*Job) {},
		"engine seq":      func(j *Job) { j.Engine = "seq" },
		"engine sync":     func(j *Job) { j.Engine = "sync" },
		"engine hybrid":   func(j *Job) { j.Engine = "hybrid" },
		"engine detect":   func(j *Job) { j.Engine = "cmb-detect" },
		"engine missing":  func(j *Job) { j.Engine = "" },
		"shard outside":   func(j *Job) { j.Shard = 2 },
		"fleet too small": func(j *Job) { j.Shards, j.Shard = 1, 0 },
	} {
		j := good
		mutate(&j)
		p, err := encodeJob(&j, payload)
		if err != nil {
			t.Fatal(err)
		}
		_, run, err := decodeJob(p)
		if name == "" {
			if err != nil || run.Part.Blocks != 4 {
				t.Errorf("well-formed job rejected: %v", err)
			}
		} else if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, p := range [][]byte{nil, {1, 2}, {255, 255, 255, 255, '{', '}'}, {2, 0, 0, 0, '{', '}'}} {
		if _, _, err := decodeJob(p); err == nil {
			t.Errorf("frame %v accepted", p)
		}
	}
}

// TestJobHeaderCarriesEngineConfig: every engine knob of the Options
// reaches the core.Options a worker runs with — the flags cannot be
// dropped between the CLI and the shard.
func TestJobHeaderCarriesEngineConfig(t *testing.T) {
	h := &hub{opts: Options{
		Shards: 2, Engine: "timewarp", System: logic.FourValued,
		Queue: eventq.ImplCalendar, Window: 7, Cancellation: timewarp.Lazy,
		StateSaving: timewarp.FullCopy, HistoryLimit: 64, MaxEvents: 99,
		HangTimeout: 3 * time.Second, HeartbeatEvery: time.Millisecond,
	}}
	p, err := encodeJob(h.jobFor(1, 0, ""), nil)
	if err != nil {
		t.Fatal(err)
	}
	var j Job
	if err := json.Unmarshal(p[4:], &j); err != nil {
		t.Fatal(err)
	}
	got, err := j.engineOptions()
	if err != nil {
		t.Fatal(err)
	}
	want := core.Options{
		Engine: core.EngineTimeWarp, System: logic.FourValued,
		Queue: eventq.ImplCalendar, Window: 7, Cancellation: timewarp.Lazy,
		StateSaving: timewarp.FullCopy, HistoryLimit: 64, MaxEvents: 99,
		Supervise: &core.SuperviseOptions{Watchdog: 3 * time.Second},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("worker options\n got %+v\nwant %+v", got, want)
	}
}

// TestDistSoak is the env-gated chaos soak (DIST_SOAK=1): seeded
// netfault plans with kills over both protocol families, every run
// checked bit-exact against the sequential reference. A failing seed
// ddmin-shrinks to a minimal fault subset and prints a repro line.
func TestDistSoak(t *testing.T) {
	if os.Getenv("DIST_SOAK") == "" {
		t.Skip("set DIST_SOAK=1 to run the distributed chaos soak")
	}
	seeds := 6
	if n, err := strconv.Atoi(os.Getenv("DIST_SOAK_SEEDS")); err == nil && n > 0 {
		seeds = n
	}
	until, ref := golden(t)

	attempt := func(t *testing.T, engine string, mesh bool, plan netfault.Plan) error {
		opts := baseOpts(t, engine, 3, until)
		opts.CheckpointEvery = 200
		opts.Restarts = 3
		opts.HeartbeatTimeout = 2 * time.Second
		opts.Plan = plan
		// The mesh arm soaks the direct data plane together with
		// incremental checkpoints, so every recovery replays a delta
		// chain; kills land faster with a quick beacon because the mesh
		// hub link carries control frames only.
		if mesh {
			opts.Mesh = true
			opts.CkptDelta = true
			opts.HeartbeatEvery = time.Millisecond
		}
		res, err := Run(opts)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(res.Waveform, trace.Waveform(ref.Waveform)) {
			return fmt.Errorf("waveform diverged (%d vs %d samples)",
				len(res.Waveform), len(ref.Waveform))
		}
		if !reflect.DeepEqual(res.Values, ref.Values) {
			return fmt.Errorf("final values diverged")
		}
		return nil
	}

	for _, engine := range []string{"cmb", "timewarp"} {
		for _, mesh := range []bool{false, true} {
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				name := fmt.Sprintf("%s/seed%d", engine, seed)
				plan := netfault.NewPlan(seed, 3, 10, true)
				if mesh {
					name = fmt.Sprintf("%s/mesh/seed%d", engine, seed)
					plan = netfault.NewMeshPlan(seed, 3, 10, true)
				}
				t.Run(name, func(t *testing.T) {
					err := attempt(t, engine, mesh, plan)
					if err == nil {
						return
					}
					// Shrink to a minimal failing fault subset for the repro.
					min, failure := chaos.ShrinkIndices(len(plan), err.Error(), func(idx []int) (bool, string) {
						if e := attempt(t, engine, mesh, plan.Subset(idx)); e != nil {
							return true, e.Error()
						}
						return false, ""
					}, 25)
					t.Errorf("mesh=%v seed %d failed: %s\nminimal fault subset %v of plan:\n%v",
						mesh, seed, failure, min, plan.Subset(min))
				})
			}
		}
	}
}
