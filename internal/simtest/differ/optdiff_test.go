package differ

import (
	"testing"

	"repro/internal/core"
	"repro/internal/opt"
)

// TestOptimizerEquivalence is the optimizer property suite: the
// differential harness with the optimizer pinned on, over randomized
// netlists, pass subsets, planes, engines, partitions, and value systems
// — every trial's optimized primary-output waveform must be bit-identical
// to the unoptimized sequential reference. Failures ddmin to a minimal
// failing pass subset.
func TestOptimizerEquivalence(t *testing.T) {
	trials := 48
	if testing.Short() {
		trials = 12
	}
	checkTrials(t, DiffConfig{Seed: 20260808, Opt: On}, trials)
}

// TestOptimizerEquivalencePerPass pins each exact pass individually on
// every engine family, so a regression names the pass directly instead of
// depending on the randomized subset sampler to hit it.
func TestOptimizerEquivalencePerPass(t *testing.T) {
	engines := []core.Engine{
		core.EngineSeq, core.EngineSync, core.EngineCMB,
		core.EngineTimeWarp, core.EngineHybrid,
	}
	if testing.Short() {
		engines = []core.Engine{core.EngineSeq, core.EngineCMB}
	}
	for _, pass := range opt.DefaultPasses {
		pass := pass
		t.Run(pass, func(t *testing.T) {
			for ei, engine := range engines {
				tr, err := GenTrial(DiffConfig{Seed: 77, Engines: []core.Engine{engine}, Passes: []string{pass}}, ei)
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.Check(); err != nil {
					t.Fatalf("engine %v: %v", engine, err)
				}
			}
		})
	}
}
