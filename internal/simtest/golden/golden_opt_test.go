package golden

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/opt"
	"repro/internal/partition"
	"repro/internal/sim/seq"
	"repro/internal/trace"
	"repro/internal/vectors"
)

// optStatsPath pins the exact optimizer statistics per fixture: gate
// counts, per-pass rewrite counts, and levelized depth. A change here
// means the optimizer's behavior on a known netlist changed — regenerate
// with -update only for intentional pass changes.
func optStatsPath() string {
	return filepath.Join("testdata", "optstats.json")
}

func readOptStats(t *testing.T) map[string]opt.Stats {
	t.Helper()
	raw, err := os.ReadFile(optStatsPath())
	if err != nil {
		t.Fatalf("missing optimizer stats fixture (run with -update to create): %v", err)
	}
	var m map[string]opt.Stats
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("parsing %s: %v", optStatsPath(), err)
	}
	return m
}

// TestGoldenOptimized replays every golden fixture through the optimized
// path: the circuit is optimized with the default (exact) pipeline, each
// event-driven engine runs the optimized netlist under the remapped
// stimulus, and the waveform — mapped back to original gate IDs — must
// match the committed golden samples bit-for-bit. The optimizer's exact
// per-fixture statistics are pinned alongside.
func TestGoldenOptimized(t *testing.T) {
	gotStats := map[string]opt.Stats{}
	for fi := range fixtures {
		f := &fixtures[fi]
		t.Run(f.name, func(t *testing.T) {
			c, stim, err := f.build()
			if err != nil {
				t.Fatal(err)
			}
			until := seq.Horizon(c, stim)
			res, err := opt.Optimize(c, opt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			gotStats[f.name] = res.Stats
			if res.Stats.GatesAfter > res.Stats.GatesBefore {
				t.Fatalf("optimizer grew the netlist: %+v", res.Stats)
			}
			if *update {
				return // stats written below; waveform goldens are unchanged
			}
			g := readGolden(t, f.name, c)
			ostim, err := res.Remap.Stimulus(stim)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range eventEngines {
				e := e
				t.Run(e.String(), func(t *testing.T) {
					rep := runOptEngine(t, e, res.Circuit, ostim, until)
					compareOptimized(t, e.String(), g, c, res, rep)
				})
			}
		})
	}

	if *update {
		raw, err := json.MarshalIndent(gotStats, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(optStatsPath(), append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", optStatsPath())
		return
	}
	want := readOptStats(t)
	for name, ws := range want {
		if gs, ok := gotStats[name]; !ok || !reflect.DeepEqual(gs, ws) {
			t.Errorf("fixture %s optimizer stats drifted:\n  got  %+v\n  want %+v", name, gotStats[name], ws)
		}
	}
	for name := range gotStats {
		if _, ok := want[name]; !ok {
			t.Errorf("fixture %s has no pinned optimizer stats (run -update)", name)
		}
	}
}

func runOptEngine(t *testing.T, e core.Engine, c *circuit.Circuit, stim *vectors.Stimulus, until circuit.Tick) *core.Report {
	t.Helper()
	rep, err := core.Simulate(c, stim, until, core.Options{
		Engine:        e,
		LPs:           4,
		Partition:     partition.MethodFM,
		PartitionSeed: 11,
		System:        logic.TwoValued,
	})
	if err != nil {
		t.Fatalf("%v: %v", e, err)
	}
	return rep
}

// compareOptimized is compareWaveform through the remap: samples map back
// to original gate IDs, finals compare at the remapped primary outputs.
func compareOptimized(t *testing.T, label string, g *golden, c *circuit.Circuit, res *opt.Result, rep *core.Report) {
	t.Helper()
	want := make(trace.Waveform, len(g.samples))
	copy(want, g.samples)
	if d := trace.Diff(want, res.Remap.WaveformBack(rep.Waveform), 8); d != "" {
		t.Errorf("%s: optimized waveform differs from golden:\n%s", label, d)
	}
	for _, out := range c.Outputs {
		name := c.Name(out)
		np, ok := res.Remap.Gate(out)
		if !ok {
			t.Fatalf("%s: output %s eliminated", label, name)
		}
		if got := rep.Values[np]; got != g.finals[name] {
			t.Errorf("%s: final %s = %v, golden %v", label, name, got, g.finals[name])
		}
	}
}
