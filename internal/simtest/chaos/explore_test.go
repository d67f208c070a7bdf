package chaos_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/simtest/differ"
)

// TestExploreDeterministic is the reproducibility contract of a chaos
// sweep: two sweeps of the same configuration draw the same trials with
// the same fault plans, and the correct engines pass under every plan in
// both sweeps, so a verdict does not depend on the schedule.
func TestExploreDeterministic(t *testing.T) {
	cfg := differ.DiffConfig{
		Seed:        42,
		Engines:     []core.Engine{core.EngineCMB, core.EngineTimeWarp, core.EngineHybrid},
		Wide:        differ.Off,
		ChaosFaults: 16,
	}
	const trials = 6
	var sweeps [2][]string
	for s := range sweeps {
		for i := 0; i < trials; i++ {
			tr, err := differ.GenTrial(cfg, i)
			if err != nil {
				t.Fatalf("sweep %d trial %d: %v", s, i, err)
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("sweep %d: %v", s, err)
			}
			sweeps[s] = append(sweeps[s], fmt.Sprintf("%s | %s | %v", tr.Repro(), tr.Spec, tr.Plan))
		}
	}
	for i := range sweeps[0] {
		if sweeps[0][i] != sweeps[1][i] {
			t.Errorf("trial %d differs between sweeps:\n--- first\n%s\n--- second\n%s", i, sweeps[0][i], sweeps[1][i])
		}
	}
}
