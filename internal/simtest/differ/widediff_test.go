package differ

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	simsync "repro/internal/sim/sync"
)

// wideSchedule is the engine and partition heuristic of each wide
// cross-engine trial: the pairs the suite's trial IDs have always named.
var wideSchedule = strings.Fields(`
	cmb/cones cmb-detect/contiguous cmb-detect/fm hybrid/cones cmb-demand/contiguous
	cmb-demand/strings hybrid/random cmb-demand/levels timewarp/kl sync/levels
	sync/kl cmb-demand/random timewarp-lazy/random sync/levels cmb-detect/fm
	timewarp/levels cmb-demand/contiguous cmb-detect/fm timewarp-lazy/random cmb-demand/multilevel
	timewarp-lazy/cones cmb/cones sync/cones hybrid/random sync/kl
	cmb-demand/kl sync/kl timewarp-lazy/multilevel cmb/multilevel hybrid/cones
	cmb/contiguous timewarp/random timewarp-lazy/cones hybrid/random cmb-detect/random
	hybrid/strings timewarp-lazy/random cmb/cones timewarp-lazy/multilevel cmb/strings`)

// TestWideLockstepCrossEngine is the wide-plane conformance suite: the
// differential harness with the plane pinned wide, so every trial runs a
// batch of independent per-lane scalar stimuli packed into one wide run,
// and every lane must reproduce — sample for sample — the scalar
// sequential reference of that lane's stimulus. Each trial pins its
// engine and heuristic from wideSchedule, so its ID keeps naming the same
// pair; the other arms are drawn. Failures shrink to a minimal lane set
// and carry a self-contained repro.
func TestWideLockstepCrossEngine(t *testing.T) {
	trials := len(wideSchedule)
	if testing.Short() {
		trials = 8
	}
	for i, pair := range wideSchedule[:trials] {
		name, method, _ := strings.Cut(pair, "/")
		eng, err := core.ParseEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := partition.ParseMethod(method)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := GenTrial(DiffConfig{Seed: 64, Wide: On, Engines: []core.Engine{eng}, Methods: []partition.Method{m}}, i)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		t.Run(fmt.Sprintf("trial-%02d-%s-%s", i, tr.Opts.Engine, tr.Opts.Partition), func(t *testing.T) {
			t.Parallel()
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWideLockstepPerEngineCoverage pins one deterministic wide batch per
// engine, so a regression in a single engine's wide path is reported by
// name even if the randomized mix under-samples it.
func TestWideLockstepPerEngineCoverage(t *testing.T) {
	per := 4
	if testing.Short() {
		per = 2
	}
	for _, eng := range DiffEngines {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			t.Parallel()
			checkTrials(t, DiffConfig{Seed: 400 + int64(eng), Engines: []core.Engine{eng}, Wide: On}, per)
		})
	}
}

// TestWideLockstepChaos is the lockstep oracle under fault injection: the
// chaos transport and the stall points attach to the generic engine body,
// so the wide asynchronous engines must stay lane-exact under a seeded
// plan of reorders, delays, duplicates and stalls.
func TestWideLockstepChaos(t *testing.T) {
	per := 4
	if testing.Short() {
		per = 2
	}
	for _, eng := range []core.Engine{core.EngineCMB, core.EngineCMBDemand, core.EngineTimeWarp, core.EngineTimeWarpLazy, core.EngineHybrid} {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			t.Parallel()
			checkTrials(t, DiffConfig{Seed: 700 + int64(eng), Engines: []core.Engine{eng}, Wide: On, ChaosFaults: 12}, per)
		})
	}
}

// TestWideLockstepRebalance runs the wide synchronous engine with dynamic
// load balancing migrating gates between steps: ownership moves must not
// change a sample in any lane.
func TestWideLockstepRebalance(t *testing.T) {
	for _, interval := range []uint64{1, 7} {
		checkTrials(t, DiffConfig{Seed: 31, Engines: []core.Engine{core.EngineSync}, Wide: On,
			Rebalance: simsync.RebalanceConfig{Interval: interval}}, 4)
	}
}

// TestWideSeqLockstep covers the wide sequential engine itself through the
// same generator (the cross-engine trials use it only as the reference).
func TestWideSeqLockstep(t *testing.T) {
	checkTrials(t, DiffConfig{Seed: 11, Engines: []core.Engine{core.EngineSeq}, Wide: On}, 4)
}

// TestGenWideTrialDeterministic guards the repro contract on the wide
// plane: the same (seed, index) must regenerate the identical trial.
func TestGenWideTrialDeterministic(t *testing.T) {
	sameTrial(t, DiffConfig{Seed: 99, Wide: On}, 2)
}

// checkTrials generates and checks trials 0..n-1 of cfg.
func checkTrials(t *testing.T, cfg DiffConfig, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tr, err := GenTrial(cfg, i)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
	}
}
