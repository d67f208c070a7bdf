package differ

import (
	"fmt"
	"testing"

	"repro/internal/core"
	simsync "repro/internal/sim/sync"
)

// TestWideLockstepCrossEngine is the wide-plane conformance suite: every
// trial generates a fresh circuit, a batch of independent per-lane scalar
// stimuli, and a wide engine configuration, then checks that every lane of
// the wide run reproduces — sample for sample — the scalar sequential
// reference of that lane's stimulus. Failures shrink to a minimal lane set
// and carry a self-contained repro.
func TestWideLockstepCrossEngine(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	cfg := WideDiffConfig{Seed: 64}
	for i := 0; i < trials; i++ {
		tr, err := GenWideTrial(cfg, i)
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

// TestWideLockstepPerEngineCoverage pins one deterministic batch per wide
// engine, so a regression in a single engine's wide path is reported by
// name even if the randomized mix under-samples it. The sequential and
// oblivious wide paths, which the lockstep trials use differently or not
// at all, get explicit entries.
func TestWideLockstepPerEngineCoverage(t *testing.T) {
	per := 4
	if testing.Short() {
		per = 2
	}
	for _, eng := range WideDiffEngines {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			t.Parallel()
			cfg := WideDiffConfig{Seed: 400 + int64(eng), Engines: []core.Engine{eng}}
			for i := 0; i < per; i++ {
				tr, err := GenWideTrial(cfg, i)
				if err != nil {
					t.Fatalf("trial %d: %v", i, err)
				}
				if err := tr.Check(); err != nil {
					t.Fatal(err)
				}
			}
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
			cfg := WideDiffConfig{Seed: 700 + int64(eng), Engines: []core.Engine{eng}, ChaosFaults: 12}
			for i := 0; i < per; i++ {
				tr, err := GenWideTrial(cfg, i)
				if err != nil {
					t.Fatalf("trial %d: %v", i, err)
				}
				if err := tr.Check(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestWideLockstepRebalance runs the wide synchronous engine with dynamic
// load balancing migrating gates between steps: ownership moves must not
// change a sample in any lane.
func TestWideLockstepRebalance(t *testing.T) {
	for _, interval := range []uint64{1, 7} {
		cfg := WideDiffConfig{Seed: 31, Engines: []core.Engine{core.EngineSync}, Rebalance: simsync.RebalanceConfig{Interval: interval}}
		for i := 0; i < 4; i++ {
			tr, err := GenWideTrial(cfg, i)
			if err != nil {
				t.Fatalf("trial %d: %v", i, err)
			}
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestWideSeqLockstep covers the wide sequential engine itself through the
// same generator (the cross-engine trials use it only as the reference).
func TestWideSeqLockstep(t *testing.T) {
	cfg := WideDiffConfig{Seed: 11, Engines: []core.Engine{core.EngineSeq}}
	for i := 0; i < 4; i++ {
		tr, err := GenWideTrial(cfg, i)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGenWideTrialDeterministic guards the repro contract: the same
// (seed, index) must regenerate the identical wide trial.
func TestGenWideTrialDeterministic(t *testing.T) {
	cfg := WideDiffConfig{Seed: 99}
	a, err := GenWideTrial(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenWideTrial(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Spec != b.Spec || a.Seed != b.Seed {
		t.Fatalf("wide trial not deterministic:\n%s\n%s", a.Spec, b.Spec)
	}
	if fmt.Sprintf("%+v", a.Opts) != fmt.Sprintf("%+v", b.Opts) {
		t.Fatalf("options not deterministic: %+v vs %+v", a.Opts, b.Opts)
	}
	if len(a.Wide.Changes) != len(b.Wide.Changes) || a.Wide.Lanes != b.Wide.Lanes {
		t.Fatalf("wide stimulus not deterministic")
	}
}
