package dist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim/ckpt"
	"repro/internal/simtest/chaos"
	"repro/internal/simtest/chaos/netfault"
)

// TestDistMeshMatchesSequential: every distributable engine over the
// mesh data plane must reproduce the sequential trajectory exactly, and
// the hub must relay zero data-plane bytes — all FBatch traffic takes
// the direct shard-to-shard route (relay_hops 1, not 2).
func TestDistMeshMatchesSequential(t *testing.T) {
	until, ref := golden(t)
	for _, engine := range []string{"cmb", "cmb-demand", "timewarp", "timewarp-lazy"} {
		t.Run(engine, func(t *testing.T) {
			reg := metrics.NewRegistry(engine + "-dist")
			opts := baseOpts(t, engine, 3, until)
			opts.Mesh = true
			opts.Metrics = reg
			res, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesGolden(t, res, ref)
			g := reg.Report().Gauges
			if g["hub_bytes"] != 0 {
				t.Errorf("hub relayed %v data-plane bytes under mesh, want 0", g["hub_bytes"])
			}
			if g["mesh_bytes"] == 0 {
				t.Error("no bytes flowed over mesh links")
			}
			if g["relay_hops"] != 1 {
				t.Errorf("relay_hops = %v, want 1", g["relay_hops"])
			}
		})
	}
}

// TestDistMeshUnixNetwork: mesh listeners follow the hub's transport;
// over the unix network the peer sockets live in the work directory.
func TestDistMeshUnixNetwork(t *testing.T) {
	until, ref := golden(t)
	opts := baseOpts(t, "timewarp", 3, until)
	opts.Network = "unix"
	opts.Mesh = true
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesGolden(t, res, ref)
}

// TestDistMeshVsHubRouting is the routing-equivalence property test:
// under seeded netfault plans (with mesh-link targets), the mesh and
// hub data planes must both produce the byte-identical sequential
// waveform, for each distributable protocol family. The issue's third
// family, hybrid, needs global in-process coordination and does not
// distribute at all (decodeJob rejects it — see
// TestDecodeJobChecksHeaderAgainstRun), so the property is
// quantified over the distributable set: the conservative engines (cmb,
// cmb-demand) and the optimistic ones (timewarp, timewarp-lazy), with
// chaos exercised on one of each family. A failing seed ddmin-shrinks
// to a minimal fault subset via Plan.Subset and prints a repro line.
func TestDistMeshVsHubRouting(t *testing.T) {
	until, ref := golden(t)

	attempt := func(t *testing.T, engine string, mesh bool, plan netfault.Plan) error {
		opts := baseOpts(t, engine, 3, until)
		opts.Mesh = mesh
		opts.Plan = plan
		opts.HeartbeatTimeout = 2 * time.Second
		res, err := Run(opts)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(res.Values, ref.Values) {
			return fmt.Errorf("final values diverged")
		}
		if len(res.Waveform) != len(ref.Waveform) {
			return fmt.Errorf("waveform diverged (%d vs %d samples)", len(res.Waveform), len(ref.Waveform))
		}
		for i := range res.Waveform {
			if res.Waveform[i] != ref.Waveform[i] {
				return fmt.Errorf("waveform sample %d diverged: %+v vs %+v", i, res.Waveform[i], ref.Waveform[i])
			}
		}
		return nil
	}

	for _, engine := range []string{"cmb", "timewarp"} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", engine, seed), func(t *testing.T) {
				plan := netfault.NewMeshPlan(seed, 3, 8, false)
				for _, mesh := range []bool{false, true} {
					if err := attempt(t, engine, mesh, plan); err != nil {
						min, failure := chaos.ShrinkIndices(len(plan), err.Error(), func(idx []int) (bool, string) {
							if e := attempt(t, engine, mesh, plan.Subset(idx)); e != nil {
								return true, e.Error()
							}
							return false, ""
						}, 25)
						t.Errorf("mesh=%v seed %d failed: %s\nminimal fault subset %v of plan:\n%v",
							mesh, seed, failure, min, plan.Subset(min))
					}
				}
			})
		}
	}
}

// TestDistMeshKillRecovers: a planned worker kill under the mesh data
// plane with incremental checkpoints armed. Recovery must replay the
// delta chain into a correct merged cut, relaunch the mesh fleet, and
// still produce the exact sequential waveform — and the deltas must
// actually have been written and been smaller than the fulls.
func TestDistMeshKillRecovers(t *testing.T) {
	// Ten times the shared stimulus: the kill is triggered by the sixth
	// frame on shard 0's hub link, and on the short workload the whole
	// attempt could finish before six beacons had been sent.
	spec := testSpec()
	spec.Vectors *= 10
	until, ref := goldenSpec(t, spec)
	for _, engine := range []string{"cmb", "timewarp"} {
		t.Run(engine, func(t *testing.T) {
			opts := baseOpts(t, engine, 2, until)
			opts.Vectors = spec.Vectors
			opts.Mesh = true
			opts.CkptDelta = true
			opts.CheckpointEvery = 200
			opts.Restarts = 2
			// Under mesh the hub link carries no FBatch frames, so the
			// kill's frame trigger counts control traffic; a fast beacon
			// makes the counter advance while the shard is still working.
			opts.HeartbeatEvery = time.Millisecond
			opts.Plan = netfault.Plan{
				{Op: netfault.OpKill, Shard: 0, AfterFrames: 5, Attempt: 0},
			}
			res, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Recoveries < 1 {
				t.Errorf("kill did not force a recovery: attempts=%d", res.Attempts)
			}
			if res.FinalMode != "dist" {
				t.Errorf("recovered run degraded to %s", res.FinalMode)
			}
			checkMatchesGolden(t, res, ref)
			// The attempt that was killed must have left delta records on
			// disk — the recovery boot merged its way through them.
			if n, _ := filepath.Glob(filepath.Join(opts.WorkDir, "shard-*-delta-*.json")); len(n) == 0 {
				t.Error("no delta checkpoint records were written")
			}
		})
	}
}

// TestDistDeltaCkptGauges: a clean delta-checkpointed run must report
// the checkpoint volume split, with delta records measurably smaller
// than full snapshots at equal recovery fidelity (delta_ratio < 1).
func TestDistDeltaCkptGauges(t *testing.T) {
	until, ref := golden(t)
	reg := metrics.NewRegistry("cmb-dist")
	opts := baseOpts(t, "cmb", 2, until)
	opts.Mesh = true
	opts.CkptDelta = true
	opts.CheckpointEvery = 200
	opts.Metrics = reg
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesGolden(t, res, ref)
	g := reg.Report().Gauges
	if g["ckpt_full_bytes"] == 0 || g["ckpt_delta_bytes"] == 0 {
		t.Fatalf("checkpoint volume gauges missing: full=%v delta=%v",
			g["ckpt_full_bytes"], g["ckpt_delta_bytes"])
	}
	if r := g["delta_ratio"]; r <= 0 || r >= 1 {
		t.Errorf("delta_ratio = %v, want a real saving in (0, 1)", r)
	}
}

// writeShardChain writes one shard's checkpoint sequence in delta mode:
// a full snapshot at the first boundary, chained deltas after — exactly
// what the worker's shadow produces.
func writeShardChain(t *testing.T, dir string, shard int, states []*ckpt.State, owned []bool) {
	t.Helper()
	var last *ckpt.State
	for _, st := range states {
		cur := restrictToShard(st, owned)
		if last == nil {
			if err := ckpt.WriteFile(filepath.Join(dir, shardCkptName(shard, cur.Time)), cur); err != nil {
				t.Fatal(err)
			}
		} else {
			d, err := ckpt.DeltaFrom(last, cur)
			if err != nil {
				t.Fatal(err)
			}
			if err := ckpt.WriteDeltaFile(filepath.Join(dir, shardDeltaName(shard, cur.Time)), d); err != nil {
				t.Fatal(err)
			}
		}
		last = cur
	}
}

// TestDeltaChainRestore: a full-then-deltas checkpoint directory must
// reconstruct the newest boundary byte-for-byte identical to the merge
// of directly written full snapshots — restoring through the chain is
// indistinguishable from restoring a full snapshot.
func TestDeltaChainRestore(t *testing.T) {
	run := prepare(t, 2, 4)
	c, part, shardOf, gateShard := run.Circuit, run.Part, run.ShardOf, gateShards(run)
	states := shadowStates(t, 200)

	deltaDir, fullDir := t.TempDir(), t.TempDir()
	for s := 0; s < 2; s++ {
		owned := ownedGates(part.Assign, shardOf, s, c.NumGates())
		writeShardChain(t, deltaDir, s, states, owned)
		for _, st := range states {
			if err := ckpt.WriteFile(filepath.Join(fullDir, shardCkptName(s, st.Time)),
				restrictToShard(st, owned)); err != nil {
				t.Fatal(err)
			}
		}
	}

	fromDeltas, atD, err := latestBoundary(deltaDir, 2, gateShard)
	if err != nil || fromDeltas == nil {
		t.Fatalf("delta-chain restore: merged=%v err=%v", fromDeltas, err)
	}
	fromFulls, atF, err := latestBoundary(fullDir, 2, gateShard)
	if err != nil || fromFulls == nil {
		t.Fatalf("full-snapshot restore: merged=%v err=%v", fromFulls, err)
	}
	if atD != atF || atD != states[len(states)-1].Time {
		t.Fatalf("boundaries differ: delta %d, full %d, newest %d", atD, atF, states[len(states)-1].Time)
	}
	if !reflect.DeepEqual(fromDeltas, fromFulls) {
		t.Error("delta-chain restore differs from full-snapshot restore")
	}
	if fromDeltas.Sum != fromFulls.Sum || fromDeltas.Verify() != nil {
		t.Errorf("checksums differ: delta %s vs full %s", fromDeltas.Sum, fromFulls.Sum)
	}
}

// TestDeltaChainCorruptFallsBack: corrupting a mid-chain delta makes
// every boundary past the break unusable; recovery must degrade to the
// newest boundary the intact prefix still reaches — and to the full
// snapshot itself when the very first link breaks — never to a wrong
// state and never to a wedge.
func TestDeltaChainCorruptFallsBack(t *testing.T) {
	run := prepare(t, 2, 4)
	c, part, shardOf, gateShard := run.Circuit, run.Part, run.ShardOf, gateShards(run)
	states := shadowStates(t, 200)
	if len(states) < 3 {
		t.Fatalf("need at least 3 boundaries, have %d", len(states))
	}

	dir := t.TempDir()
	for s := 0; s < 2; s++ {
		writeShardChain(t, dir, s, states, ownedGates(part.Assign, shardOf, s, c.NumGates()))
	}

	// The corruption itself must surface as the structured ckpt.ErrCorrupt
	// when the broken record is read back directly.
	mid := states[len(states)-1].Time
	if err := os.WriteFile(filepath.Join(dir, shardDeltaName(1, mid)), []byte(`{"version":"parsim-ckpt-delta/v1","sum":"fnv64a:dead"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.ReadDeltaFile(filepath.Join(dir, shardDeltaName(1, mid))); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("corrupt delta read error = %v, want ckpt.ErrCorrupt", err)
	}

	// Newest boundary's delta broken: fall back one boundary.
	merged, at, err := latestBoundary(dir, 2, gateShard)
	if err != nil || merged == nil {
		t.Fatalf("after tail corruption: merged=%v err=%v", merged, err)
	}
	if want := states[len(states)-2].Time; at != want {
		t.Errorf("picked boundary %d, want fallback %d", at, want)
	}

	// Break the first delta link too: every chained boundary is now
	// unreachable and recovery must degrade to the last full snapshot.
	first := states[1].Time
	if err := os.Truncate(filepath.Join(dir, shardDeltaName(0, first)), 3); err != nil {
		t.Fatal(err)
	}
	merged, at, err = latestBoundary(dir, 2, gateShard)
	if err != nil || merged == nil {
		t.Fatalf("after chain-head corruption: merged=%v err=%v", merged, err)
	}
	if want := states[0].Time; at != want {
		t.Errorf("picked boundary %d, want the full snapshot at %d", at, want)
	}
	if merged.Verify() != nil {
		t.Error("fallback snapshot fails its own checksum")
	}
}
