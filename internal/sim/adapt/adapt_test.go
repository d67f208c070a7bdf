package adapt

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden decision logs from current controller behavior")

// goldenCases pairs each recorded trace with the controller that
// replays it. Traces are JSON []Sample in testdata/;
// goldens are the decision logs the replay must reproduce exactly.
var goldenCases = []struct {
	name   string
	replay func([]Sample) []Decision
}{
	{"window_rollback_storm", ReplayWindow},
	{"window_clamped", ReplayWindow},
	// Small bounds so the trace can walk additive increase all the way
	// to the release-to-unbounded transition.
	{"window_calm_release", func(tr []Sample) []Decision {
		w := newWindowController(256, 600)
		for _, s := range tr {
			w.Observe(s)
		}
		return w.Decisions()
	}},
	{"window_throughput_guard", ReplayWindow},
	{"switch_null_flood", ReplaySwitch},
	{"switch_rollback_thrash", ReplaySwitch},
	{"rebalance_imbalance", ReplayRebalance},
}

// TestGoldenDecisions drives every controller open-loop from its
// recorded metrics trace and pins the decision log. Run with -update
// to regenerate the goldens after a deliberate policy change.
func TestGoldenDecisions(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := ReadTrace(filepath.Join("testdata", tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			got := tc.replay(tr)
			raw, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, '\n')
			golden := filepath.Join("testdata", tc.name+".golden.json")
			if *update {
				if err := os.WriteFile(golden, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if string(want) != string(raw) {
				t.Errorf("decision log drifted from golden %s\ngot:\n%s\nwant:\n%s\n(run with -update if the change is deliberate)",
					golden, raw, want)
			}
		})
	}
}

// TestReplayDeterministic replays every trace twice and demands
// identical decision logs — the controllers' core contract: decisions
// are a pure function of the sampled-metrics trace.
func TestReplayDeterministic(t *testing.T) {
	for _, tc := range goldenCases {
		tr, err := ReadTrace(filepath.Join("testdata", tc.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		a, b := tc.replay(tr), tc.replay(tr)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: replay is not deterministic:\n%v\nvs\n%v", tc.name, a, b)
		}
	}
}

// TestClampAlwaysWins is the memory-throttle regression: whenever a
// sample carries a clamp, the controller's window must not exceed it,
// and the controller must not grow the window at all while clamped —
// growing against the clamp is the feedback fight the livelock guard
// exists to prevent.
func TestClampAlwaysWins(t *testing.T) {
	tr, err := ReadTrace(filepath.Join("testdata", "window_clamped.json"))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWindowController()
	var prevWin uint64
	for i, s := range tr {
		win, _ := w.Observe(s)
		if s.Clamp != 0 {
			if win == 0 || win > s.Clamp {
				t.Fatalf("sample %d: controller window %d exceeds clamp %d", i, win, s.Clamp)
			}
			if i > 0 && tr[i-1].Clamp != 0 && prevWin != 0 && win > prevWin {
				t.Fatalf("sample %d: controller grew %d -> %d while clamped", i, prevWin, win)
			}
		}
		prevWin = win
	}
	// After the clamp releases the controller must resume additive
	// increase from the clamp's setpoint, not snap back to a wide
	// window in one step.
	if got := w.Window(); got == 0 || got > 150+2*1024 {
		t.Fatalf("post-clamp window %d did not resume from the clamp setpoint", got)
	}
}

// TestClampLivelockGuard feeds an unchanging over-limit observation
// forever: the controller must reach a fixed point (adopt the clamp
// and hold), not oscillate or ratchet — an oscillating target would
// chase the engine-side clamp in circles.
func TestClampLivelockGuard(t *testing.T) {
	w := NewWindowController()
	s := Sample{Round: 0, WallMs: 10, EventsApplied: 1000, Clamp: 64}
	var last uint64
	for i := 0; i < 50; i++ {
		s.Round = i
		s.WallMs += 10
		s.EventsApplied += 1000
		win, changed := w.Observe(s)
		if i > 1 && changed {
			t.Fatalf("iteration %d: window still moving (%d -> %d) under a constant clamp", i, last, win)
		}
		last = win
	}
	if last != 64 {
		t.Fatalf("fixed point %d, want the clamp value 64", last)
	}
	if w.Changes() != 1 {
		t.Fatalf("expected exactly one change (adopting the clamp), got %d", w.Changes())
	}
}

// TestWindowIdleRoundsHold verifies rounds with no applied events
// carry no signal.
func TestWindowIdleRoundsHold(t *testing.T) {
	w := NewWindowController()
	w.Observe(Sample{Round: 0, WallMs: 10, EventsApplied: 1000, EventsRolledBack: 900})
	w.Observe(Sample{Round: 1, WallMs: 20, EventsApplied: 3000, EventsRolledBack: 2700})
	engaged := w.Window()
	if engaged == 0 {
		t.Fatal("storm sample did not engage the controller")
	}
	for i := 2; i < 10; i++ {
		if win, changed := w.Observe(Sample{Round: i, WallMs: float64(10 * (i + 1)), EventsApplied: 3000, EventsRolledBack: 2700}); changed || win != engaged {
			t.Fatalf("idle round %d moved the window %d -> %d", i, engaged, win)
		}
	}
}

// TestResetEpoch verifies the cross-segment re-baseline: after a
// reset, the first sample of the new run (whose counters restarted
// from zero) must not be differenced against the old run's totals.
func TestResetEpoch(t *testing.T) {
	w := NewWindowController()
	w.Observe(Sample{Round: 0, WallMs: 10, EventsApplied: 100000, EventsRolledBack: 90000})
	w.Observe(Sample{Round: 1, WallMs: 20, EventsApplied: 200000, EventsRolledBack: 180000})
	win := w.Window()
	w.ResetEpoch()
	// New engine run: counters restart. Without the re-baseline this
	// would be a huge negative delta.
	if got, changed := w.Observe(Sample{Round: 0, WallMs: 5, EventsApplied: 500}); changed || got != win {
		t.Fatalf("first post-reset sample moved the window %d -> %d", win, got)
	}
	if got, _ := w.Observe(Sample{Round: 1, WallMs: 10, EventsApplied: 1500, EventsRolledBack: 900}); got >= win && win > 16 {
		t.Fatalf("post-reset storm did not decrease the window (still %d from %d)", got, win)
	}
}

// TestSwitchTargetsParse pins the migration targets to names the core
// engine parser accepts (the supervisor ParseEngines these verbatim).
func TestSwitchTargetsParse(t *testing.T) {
	for _, name := range []string{switchConservative, switchOptimistic} {
		if !conservativeEngine(name) && !optimisticEngine(name) {
			t.Errorf("default target %q is not classified by the controller itself", name)
		}
	}
}

// TestSpecRoundTrip exercises ParseSpec on inline JSON and files.
func TestSpecRoundTrip(t *testing.T) {
	sp, err := ParseSpec(`{"every": 100, "no_rebalance": true, "script": [{"round": 1, "kind": "switch", "to": "timewarp"}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Every != 100 || !sp.NoRebalance || len(sp.Script) != 1 {
		t.Fatalf("inline spec parsed wrong: %+v", sp)
	}
	d, ok := sp.Scripted(1)
	if !ok || d.Kind != KindSwitch || d.To != "timewarp" || d.Reason != "scripted" {
		t.Fatalf("Scripted(1) = %+v, %v", d, ok)
	}
	if _, ok := sp.Scripted(0); ok {
		t.Fatal("Scripted(0) matched nothing")
	}

	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(`{"max_probes": 7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err = ParseSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if sp.MaxProbes != 7 {
		t.Fatalf("file spec parsed wrong: %+v", sp)
	}
	if _, err := ParseSpec(`{"every": `); err == nil {
		t.Fatal("malformed inline spec accepted")
	}
	if _, err := ParseSpec("/nonexistent/spec.json"); err == nil {
		t.Fatal("missing spec file accepted")
	}
	if _, err := ParseSpec(`{"every": 100} {}`); err == nil {
		t.Fatal("data after the spec accepted")
	}
	// A key Spec does not have is refused by name, so a typo or a
	// retired threshold never silently leaves the default in force.
	for _, tc := range []struct{ spec, key string }{
		{`{"max_probe": 2}`, "max_probe"},
		{`{"every": 100, "null_hi": 9}`, "null_hi"},
		{`{"switch": {"null_hi": 9}}`, "switch"},
	} {
		_, err := ParseSpec(tc.spec)
		if err == nil || !strings.Contains(err.Error(), `"`+tc.key+`"`) {
			t.Errorf("ParseSpec(%s) = %v, want an error naming %q", tc.spec, err, tc.key)
		}
	}
}

// TestWithDefaults pins the derived defaults.
func TestWithDefaults(t *testing.T) {
	sp := Spec{}.WithDefaults(1000)
	if sp.Every != 250 || sp.MaxProbes != 4 {
		t.Fatalf("defaults: %+v", sp)
	}
	if sp = (Spec{}).WithDefaults(2); sp.Every != 1 {
		t.Fatalf("tiny-horizon Every = %d, want 1", sp.Every)
	}
}
