package differ

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// chaosEngines are the asynchronous engines, the ones whose transport and
// LP loop the chaos hook perturbs.
var chaosEngines = []core.Engine{
	core.EngineCMB, core.EngineCMBDemand, core.EngineCMBDetect,
	core.EngineTimeWarp, core.EngineTimeWarpLazy, core.EngineHybrid,
}

// TestDifferentialChaos runs each asynchronous engine on the scalar plane
// under seeded plans of 16 transport faults and stalls: the engine must
// reproduce the sequential waveform and obey the counter laws on every
// trial. Each engine runs until 12 of its trials (3 under -short) had two
// or more LPs, so cross-LP links carry the faults.
func TestDifferentialChaos(t *testing.T) {
	want := 12
	if testing.Short() {
		want = 3
	}
	for _, eng := range chaosEngines {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DiffConfig{Seed: 1000 + int64(eng), Engines: []core.Engine{eng}, Wide: Off, ChaosFaults: 16}
			for i, linked := 0, 0; linked < want; i++ {
				tr, err := GenTrial(cfg, i)
				if err != nil {
					t.Fatalf("trial %d: %v", i, err)
				}
				if tr.Opts.LPs >= 2 {
					linked++
				}
				if err := tr.Check(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// minimalFaults reads the shrunk plan size out of a chaos trial's failure.
var minimalFaults = regexp.MustCompile(`faults \[([0-9 ]*)\] of 16`)

// TestDifferentialChaosCatchesBrokenLookahead is the harness self-test:
// cmb with every link's lookahead inflated by one tick promises more than
// it can keep. The chaos arm must catch it, shrink the plan to at most 10
// faults, and the trial named by the repro line must fail again.
func TestDifferentialChaosCatchesBrokenLookahead(t *testing.T) {
	cfg := DiffConfig{Seed: 5, Engines: []core.Engine{core.EngineCMB}, Wide: Off, ChaosFaults: 16, LookaheadBias: 1}
	tr, err := GenTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Opts.LPs < 2 {
		t.Fatalf("trial has %d LP; the bias needs a cross-LP link", tr.Opts.LPs)
	}
	err = tr.Check()
	if err == nil {
		t.Fatal("biased-lookahead engine was not caught")
	}
	m := minimalFaults.FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("failure does not report a shrunk plan:\n%v", err)
	}
	if n := len(strings.Fields(m[1])); n > 10 {
		t.Errorf("minimal repro has %d faults, want <= 10:\n%v", n, err)
	}
	line := tr.Repro()
	if !strings.Contains(err.Error(), line) {
		t.Fatalf("failure does not carry the repro line %q:\n%v", line, err)
	}
	for _, arm := range []string{"Seed: 5", "ChaosFaults: 16", "LookaheadBias: 1", ", 0)"} {
		if !strings.Contains(line, arm) {
			t.Fatalf("repro %q does not name %q", line, arm)
		}
	}
	again, err := GenTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Spec != tr.Spec {
		t.Fatalf("repro regenerated another trial:\n%s\n%s", again.Spec, tr.Spec)
	}
	if err := again.Check(); err == nil {
		t.Fatal("the trial regenerated from the repro line passed")
	}
}

// TestDifferentialChaosNightly is the scheduled CI entry point (see the
// chaos-nightly job in .github/workflows/ci.yml). It checks chaos trials
// of every asynchronous engine, on either plane, under a wall-clock
// budget. The master seed is the date, so each night explores fresh
// trials while a re-run of the same job replays the same ones, and any
// failure's repro line pins its trial for good. Gated on CHAOS_NIGHTLY=1
// so ordinary `go test ./...` never pays for it.
//
// Environment:
//
//	CHAOS_NIGHTLY=1        enable (otherwise skipped)
//	CHAOS_BUDGET=25m       wall-clock budget (default 20m)
//	CHAOS_ARTIFACT_DIR=dir write each failure, with its repro line, to a
//	                       file here for CI artifact upload
func TestDifferentialChaosNightly(t *testing.T) {
	if os.Getenv("CHAOS_NIGHTLY") != "1" {
		t.Skip("set CHAOS_NIGHTLY=1 to run the nightly sweep")
	}
	budget := 20 * time.Minute
	if s := os.Getenv("CHAOS_BUDGET"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("CHAOS_BUDGET %q: %v", s, err)
		}
		budget = d
	}
	day, err := strconv.ParseInt(time.Now().UTC().Format("20060102"), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DiffConfig{Seed: day, Engines: chaosEngines, ChaosFaults: 16}
	artifacts := os.Getenv("CHAOS_ARTIFACT_DIR")
	deadline := time.Now().Add(budget)
	failures, i := 0, 0
	for ; time.Now().Before(deadline); i++ {
		tr, err := GenTrial(cfg, i)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		err = tr.Check()
		if err == nil {
			continue
		}
		failures++
		t.Error(err)
		if artifacts != "" {
			name := fmt.Sprintf("chaos-%d-trial%d-%v.txt", day, i, tr.Opts.Engine)
			if werr := os.WriteFile(filepath.Join(artifacts, name), []byte(err.Error()+"\n"), 0o644); werr != nil {
				t.Logf("writing artifact %s: %v", name, werr)
			}
		}
	}
	t.Logf("seed %d: %d trials, %d failures", day, i, failures)
}
