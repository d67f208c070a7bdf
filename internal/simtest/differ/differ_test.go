package differ

import (
	"fmt"
	"go/parser"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
)

// TestDifferentialCrossEngine runs the differential harness with every arm
// drawn: each trial generates a fresh circuit, stimulus, value plane,
// optimizer pass subset, engine, partition, and LP count, and checks every
// lane's waveform and final values against the sequential reference of
// the unoptimized netlist. Failures carry a self-contained repro.
//
// A trial's ID names its engine and partition heuristic, so the partition
// is drawn from the eight heuristics: the IDs then keep naming the same
// circuit, stimulus, engine and partition as the arms grow. Cone-split is
// drawn by the optimizer, wide and chaos suites and pinned per engine in
// TestDifferentialPerEngineCoverage.
func TestDifferentialCrossEngine(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 12
	}
	cfg := DiffConfig{Seed: 1995, Methods: diffMethods[:len(diffMethods)-1]}
	for i := 0; i < trials; i++ {
		tr, err := GenTrial(cfg, i)
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

// TestDifferentialPerEngineCoverage pins one deterministic trial batch per
// engine — scalar and wide, each with and without the optimizer, plus one
// trial on the cone-split partition — so a regression in a single engine
// is reported by name even if the randomized mix above happens to
// under-sample it.
func TestDifferentialPerEngineCoverage(t *testing.T) {
	per := 2
	if testing.Short() {
		per = 1
	}
	for _, eng := range DiffEngines {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			t.Parallel()
			base := DiffConfig{Seed: 7 + int64(eng), Engines: []core.Engine{eng}}
			var cfgs []DiffConfig
			for _, wide := range []Arm{Off, On} {
				for _, optimize := range []Arm{Off, On} {
					cfg := base
					cfg.Wide, cfg.Opt = wide, optimize
					for i := 0; i < per; i++ {
						cfgs = append(cfgs, cfg)
					}
				}
			}
			cone := base
			cone.Methods = []partition.Method{partition.MethodConeSplit}
			cfgs = append(cfgs, cone)
			for i, cfg := range cfgs {
				tr, err := GenTrial(cfg, i)
				if err != nil {
					t.Fatalf("trial %d: %v", i, err)
				}
				want := []string{
					map[Arm]string{On: "plane=wide", Off: "plane=scalar", Draw: "plane="}[cfg.Wide],
					map[Arm]string{On: "opt=[", Off: "opt=none", Draw: "opt="}[cfg.Opt],
					"partition=" + tr.Opts.Partition.String(), "engine=" + eng.String(), "system=", "lps=",
				}
				for _, w := range want {
					if !strings.Contains(tr.Spec, w) {
						t.Fatalf("trial %d spec does not name its arm %q: %s", i, w, tr.Spec)
					}
				}
				if err := tr.Check(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestGenTrialDeterministic guards the repro contract: the same (seed,
// index) must regenerate the identical trial.
func TestGenTrialDeterministic(t *testing.T) {
	sameTrial(t, DiffConfig{Seed: 42}, 3)
}

// sameTrial generates trial i twice and requires the same spec, options,
// passes, plan and stimuli.
func sameTrial(t *testing.T, cfg DiffConfig, i int) {
	t.Helper()
	a, err := GenTrial(cfg, i)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenTrial(cfg, i)
	if err != nil {
		t.Fatal(err)
	}
	if a.Spec != b.Spec || a.Seed != b.Seed {
		t.Fatalf("trial not deterministic:\n%s\n%s", a.Spec, b.Spec)
	}
	if fmt.Sprintf("%+v %v %v", a.Opts, a.Passes, a.Plan) != fmt.Sprintf("%+v %v %v", b.Opts, b.Passes, b.Plan) {
		t.Fatalf("options not deterministic: %+v %v %v vs %+v %v %v", a.Opts, a.Passes, a.Plan, b.Opts, b.Passes, b.Plan)
	}
	if len(a.Stims) != len(b.Stims) {
		t.Fatalf("lane count not deterministic: %d vs %d", len(a.Stims), len(b.Stims))
	}
	for k := range a.Stims {
		if fmt.Sprint(a.Stims[k].Changes) != fmt.Sprint(b.Stims[k].Changes) {
			t.Fatalf("lane %d stimulus not deterministic", k)
		}
	}
}

// TestGenTrialSmallMaxGates: a MaxGates at or below the random families'
// floor is refused with an error, not a panic from the size draw.
func TestGenTrialSmallMaxGates(t *testing.T) {
	for _, n := range []int{30, 45, minGates} {
		if _, err := GenTrial(DiffConfig{Seed: 1, MaxGates: n}, 0); err == nil {
			t.Fatalf("MaxGates %d: want an error", n)
		}
	}
	for i := 0; i < 12; i++ {
		if _, err := GenTrial(DiffConfig{Seed: 1, MaxGates: minGates + 1}, i); err != nil {
			t.Fatalf("MaxGates %d trial %d: %v", minGates+1, i, err)
		}
	}
}

// TestReproLine: a failure's repro line is a Go expression carrying the
// real master seed and every pinned arm, so it can be pasted as is.
func TestReproLine(t *testing.T) {
	for _, cfg := range []DiffConfig{
		{Seed: 1995},
		{Seed: 1995, MaxGates: 120, Engines: []core.Engine{core.EngineCMB, core.EngineSync},
			Methods: []partition.Method{partition.MethodConeSplit}, Wide: On, Opt: Off,
			Passes: []string{"dce"}, ChaosFaults: 12, LookaheadBias: 1},
	} {
		tr, err := GenTrial(cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		line := tr.Repro()
		if _, err := parser.ParseExpr(line); err != nil {
			t.Fatalf("repro %q is not a Go expression: %v", line, err)
		}
		if !strings.HasPrefix(line, "differ.GenTrial(differ.DiffConfig{Seed: 1995") || !strings.HasSuffix(line, ", 5)") {
			t.Fatalf("repro %q lacks the master seed or the index", line)
		}
		if cfg.Engines != nil {
			for _, want := range []string{"MaxGates: 120", "3 /* cmb */, 2 /* sync */", "Wide: differ.On", "Opt: differ.Off",
				"Methods: []partition.Method{9 /* cone-split */}", `Passes: []string{"dce"}`, "ChaosFaults: 12", "LookaheadBias: 1"} {
				if !strings.Contains(line, want) {
					t.Fatalf("repro %q lacks pinned arm %q", line, want)
				}
			}
		}
		if err := tr.fail("x"); !strings.Contains(err.Error(), line) {
			t.Fatalf("failure message does not carry the repro line:\n%v", err)
		}
	}
}
